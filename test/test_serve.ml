(* @serve-smoke: the telemetry plane against the shipped binary.

   Subprocess golden tests of `modemerge merge --serve`:

   - a merge stretched by an MM_CHAOS task delay is scraped while it
     runs — every endpoint must answer mid-flight, repeatedly — and
     its merged SDC bytes must be identical to a run without --serve,
     at jobs=1 and jobs=4 (serving is read-only w.r.t. results);
   - SIGINT mid-merge must exit 130 and still flush a valid Chrome
     trace file and a schema-versioned NDJSON event dump ending in a
     `run.signal` event (previously Ctrl-C lost every pending export).

   Port races are impossible by construction: every server binds
   127.0.0.1:0 and the test parses the OS-assigned port from the
   `serving telemetry on http://…` stderr line. *)

module Eventlog = Mm_util.Eventlog

let () = Printexc.record_backtrace true

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Scratch dir, fixture, process plumbing                              *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let scratch_root =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mm_serve_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () -> rm_rf dir);
  dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

let modemerge =
  lazy
    (match Sys.getenv_opt "MODEMERGE" with
    | Some p when p <> "" -> p
    | _ ->
      Alcotest.fail
        "MODEMERGE not set: run this suite via `dune build @serve-smoke`, \
         which wires in the modemerge binary")

let fixture =
  lazy
    (let exe = Lazy.force modemerge in
     let dir = Filename.concat scratch_root "fixture" in
     let rc =
       Sys.command
         (Printf.sprintf
            "%s gen -o %s --seed 11 --domains 2 --regs 10 --families 3,2 > %s \
             2>&1"
            (Filename.quote exe) (Filename.quote dir)
            (Filename.quote (Filename.concat scratch_root "gen.log")))
     in
     check Alcotest.int "gen exits cleanly" 0 rc;
     let sdcs =
       List.map
         (fun n -> Filename.concat dir (n ^ ".sdc"))
         [ "m0_0"; "m0_1"; "m0_2"; "m1_0"; "m1_1" ]
     in
     Filename.concat dir "design.nl", sdcs)

(* Spawn the binary with stdout/stderr redirected to files; returns the
   pid for signalling. [chaos] stretches the run via MM_CHAOS (a pure
   delay, so outputs are unaffected). *)
let spawn ?chaos ~tag args =
  let exe = Lazy.force modemerge in
  let out = Filename.concat scratch_root (tag ^ ".out") in
  let err = Filename.concat scratch_root (tag ^ ".err") in
  let argv = Array.of_list (exe :: args) in
  let env =
    let base =
      Array.to_list (Unix.environment ())
      |> List.filter (fun kv ->
             not (String.length kv >= 9 && String.sub kv 0 9 = "MM_CHAOS="))
    in
    Array.of_list
      (match chaos with
      | None -> base
      | Some spec -> ("MM_CHAOS=" ^ spec) :: base)
  in
  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] in
  let out_fd = Unix.openfile out flags 0o644 in
  let err_fd = Unix.openfile err flags 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out_fd;
        Unix.close err_fd)
      (fun () -> Unix.create_process_env exe argv env Unix.stdin out_fd err_fd)
  in
  pid, out, err

(* [alive] must not lose the exit status it reaps, so both helpers go
   through one status cache. *)
let reaped : (int, Unix.process_status) Hashtbl.t = Hashtbl.create 4

let status_code pid = function
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED s -> Alcotest.failf "child %d killed by signal %d" pid s
  | Unix.WSTOPPED s -> Alcotest.failf "child %d stopped by signal %d" pid s

let wait_exit pid =
  match Hashtbl.find_opt reaped pid with
  | Some st -> status_code pid st
  | None ->
    let _, st = Unix.waitpid [] pid in
    Hashtbl.replace reaped pid st;
    status_code pid st

let alive pid =
  if Hashtbl.mem reaped pid then false
  else
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> true
    | _, st ->
      Hashtbl.replace reaped pid st;
      false

(* Poll the stderr file for "serving telemetry on http://ADDR:PORT/"
   and return the port. The line is flushed before any pipeline work
   starts, so this resolves almost immediately. *)
let wait_for_port ~err ~pid =
  let deadline = Unix.gettimeofday () +. 10. in
  let parse () =
    let text = if Sys.file_exists err then read_file err else "" in
    let marker = "serving telemetry on http://" in
    let ml = String.length marker and tl = String.length text in
    let rec find i = if i + ml > tl then None else if String.sub text i ml = marker then Some (i + ml) else find (i + 1) in
    match find 0 with
    | None -> None
    | Some start -> (
      match String.index_from_opt text start '/' with
      | None -> None
      | Some slash -> (
        let hostport = String.sub text start (slash - start) in
        match String.rindex_opt hostport ':' with
        | None -> None
        | Some c ->
          int_of_string_opt
            (String.sub hostport (c + 1) (String.length hostport - c - 1))))
  in
  let rec go () =
    match parse () with
    | Some port -> port
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "no serving line in %s after 10s (child %s)" err
          (if alive pid then "alive" else "dead")
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

let merged_sdc_bytes out_dir =
  let names =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".sdc")
         (Array.to_list (Sys.readdir out_dir)))
  in
  check Alcotest.bool "run produced merged SDCs" true (names <> []);
  List.map (fun n -> (n, read_file (Filename.concat out_dir n))) names

let merge_args ~jobs ~out ~extra =
  let netlist, sdcs = Lazy.force fixture in
  [ "merge"; "-n"; netlist; "--permissive"; "-j"; string_of_int jobs; "-o";
    out ]
  @ extra @ sdcs

(* ------------------------------------------------------------------ *)
(* Scrape-under-load + byte identity                                   *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec find i = i + nl <= hl && (String.sub hay i nl = needle || find (i + 1)) in
  find 0

let baseline jobs =
  let out = Filename.concat scratch_root (Printf.sprintf "base_j%d" jobs) in
  rm_rf out;
  let pid, _, _ =
    spawn ~tag:(Printf.sprintf "base_j%d" jobs)
      (merge_args ~jobs ~out ~extra:[])
  in
  check Alcotest.int "baseline merge exits cleanly" 0 (wait_exit pid);
  merged_sdc_bytes out

let test_scrape_under_load jobs () =
  let tag = Printf.sprintf "serve_j%d" jobs in
  let out = Filename.concat scratch_root (tag ^ "_out") in
  rm_rf out;
  let pid, _, err =
    spawn ~chaos:"pool.task@*=delay:120" ~tag
      (merge_args ~jobs ~out ~extra:[ "--serve"; "127.0.0.1:0" ])
  in
  let port = wait_for_port ~err ~pid in
  (* Scrape every endpoint repeatedly while the merge is in flight.
     Near process exit a connect can be refused; that is only tolerated
     once the child is gone. *)
  let scrapes = ref 0 and failures = ref [] in
  let endpoints =
    [ "/metrics"; "/healthz"; "/progress"; "/events?n=50"; "/trace"; "/" ]
  in
  let validate path (status, body_text) =
    if status <> 200 then
      failures := Printf.sprintf "%s -> %d" path status :: !failures
    else
      match path with
      | "/metrics" ->
        if not (contains "# TYPE " body_text) then
          failures := "metrics body has no # TYPE line" :: !failures
      | "/healthz" ->
        if not (contains "\"status\":\"ok\"" body_text) then
          failures := "healthz not ok" :: !failures
      | "/events?n=50" ->
        if not (contains Eventlog.schema_version body_text) then
          failures := "events missing schema header" :: !failures
      | _ -> ()
  in
  let deadline = Unix.gettimeofday () +. 120. in
  let rec scrape_loop () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "merge under scrape did not finish within 120s";
    let child_alive = alive pid in
    let connected =
      List.for_all
        (fun path ->
          match Http_client.get ~port path with
          | reply ->
            incr scrapes;
            validate path reply;
            true
          | exception Unix.Unix_error _ -> false)
        endpoints
    in
    if connected && child_alive then begin
      Unix.sleepf 0.05;
      scrape_loop ()
    end
    else if not connected && child_alive then begin
      (* Server races ahead of the port line only transiently. *)
      Unix.sleepf 0.05;
      scrape_loop ()
    end
  in
  scrape_loop ();
  check Alcotest.int "merge under scrape exits cleanly" 0 (wait_exit pid);
  check Alcotest.bool
    (Printf.sprintf "scraped all endpoints mid-run (%d scrapes)" !scrapes)
    true
    (!scrapes >= List.length endpoints);
  (match !failures with
  | [] -> ()
  | fs -> Alcotest.failf "scrape failures: %s" (String.concat "; " fs));
  check
    Alcotest.(list (pair string string))
    (Printf.sprintf "merged SDC bytes identical with --serve at jobs=%d" jobs)
    (baseline jobs) (merged_sdc_bytes out)

(* ------------------------------------------------------------------ *)
(* SIGINT: exit 130 with flushed exports                                *)

let test_sigint_flushes () =
  let tag = "sigint" in
  let out = Filename.concat scratch_root (tag ^ "_out") in
  rm_rf out;
  let trace = Filename.concat scratch_root (tag ^ "_trace.json") in
  let events = Filename.concat scratch_root (tag ^ "_events.ndjson") in
  let pid, _, err =
    spawn ~chaos:"pool.task@*=delay:200" ~tag
      (merge_args ~jobs:1 ~out
         ~extra:
           [ "--serve"; "127.0.0.1:0"; "--trace"; trace; "--events"; events ])
  in
  (* Interrupt once the run is demonstrably in flight (server up and at
     least one pool task under way). *)
  let _port = wait_for_port ~err ~pid in
  Unix.sleepf 0.5;
  check Alcotest.bool "child still running when interrupted" true (alive pid);
  Unix.kill pid Sys.sigint;
  check Alcotest.int "SIGINT exits 130" 130 (wait_exit pid);
  (* The trace flushed and parses as one JSON document. *)
  check Alcotest.bool "trace file written" true (Sys.file_exists trace);
  (match Json_read.parse_json (read_file trace) with
  | _ -> ()
  | exception Json_read.Parse_error e ->
    Alcotest.failf "interrupted trace is not valid JSON: %s" e);
  (* The event dump flushed: schema header, parseable lines, and the
     run.signal event recorded by the handler. *)
  check Alcotest.bool "events file written" true (Sys.file_exists events);
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file events))
  in
  check Alcotest.bool "events dump has header + events" true
    (List.length lines >= 2);
  (match Json_read.parse_json (List.hd lines) with
  | j ->
    check Alcotest.bool "events header schema" true
      (Json_read.member "schema" j = Some (Json_read.Str Eventlog.schema_version))
  | exception Json_read.Parse_error e ->
    Alcotest.failf "events header does not parse: %s" e);
  let kinds =
    List.filter_map
      (fun line ->
        match Json_read.member "kind" (Json_read.parse_json line) with
        | Some (Json_read.Str k) -> Some k
        | _ -> None
        | exception Json_read.Parse_error _ -> None)
      (List.tl lines)
  in
  check Alcotest.bool "run.signal journaled" true
    (List.mem "run.signal" kinds);
  check Alcotest.bool "run.start journaled before the interrupt" true
    (List.mem "run.start" kinds)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve-smoke"
    [
      ( "serve",
        [
          tc "scrape all endpoints during a jobs=1 merge; bytes unchanged"
            (test_scrape_under_load 1);
          tc "scrape all endpoints during a jobs=4 merge; bytes unchanged"
            (test_scrape_under_load 4);
          tc "SIGINT mid-merge exits 130 with trace + event dump flushed"
            test_sigint_flushes;
        ] );
    ]
