(* @eventlog: the telemetry plane's in-process contracts.

   Four layers:

   - Eventlog ring semantics: bounded capacity, gap-free sequence
     numbers, newest-retention under wraparound (unit tests plus a
     QCheck property over random capacity/log-count mixes), and the
     schema-versioned NDJSON export.
   - Progress trackers: accumulation, finish/rearm, ETA presence and
     the /progress JSON shape.
   - Prometheus exposition: a golden rendering of a controlled
     registry, name sanitisation, empty/single-sample histograms, and
     a QCheck property that bucket series are monotone and end at the
     exact count.
   - The HTTP plane: Httpd request handling against a real socket on
     an OS-assigned port, Serve's --serve spec parser, every endpoint
     of the routing handler, and the DESIGN.md §15 event-kind table
     checked bidirectionally against a real merge run (the same
     contract style as the §9 taxonomy suite). *)

module Eventlog = Mm_util.Eventlog
module Progress = Mm_util.Progress
module Metrics = Mm_util.Metrics
module Obs = Mm_util.Obs
module Httpd = Mm_util.Httpd
module Serve = Mm_util.Serve
module Merge_flow = Mm_core.Merge_flow
module Gen_design = Mm_workload.Gen_design
module Gen_modes = Mm_workload.Gen_modes

let () = Printexc.record_backtrace true

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

module SS = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Eventlog ring                                                       *)

let test_ring_basics () =
  Eventlog.reset ();
  Eventlog.set_capacity Eventlog.default_capacity;
  check Alcotest.int "empty total" 0 (Eventlog.total ());
  check Alcotest.int "empty dropped" 0 (Eventlog.dropped ());
  Eventlog.log "a.one";
  Eventlog.log "a.two" ~attrs:[ ("k", "v") ];
  Eventlog.log "a.one";
  check Alcotest.int "total counts every log" 3 (Eventlog.total ());
  let evs = Eventlog.recent () in
  check Alcotest.(list string) "oldest first"
    [ "a.one"; "a.two"; "a.one" ]
    (List.map (fun e -> e.Eventlog.ev_kind) evs);
  check
    Alcotest.(list int)
    "gap-free seq" [ 0; 1; 2 ]
    (List.map (fun e -> e.Eventlog.ev_seq) evs);
  check
    Alcotest.(list (pair string string))
    "attrs retained"
    [ ("k", "v") ]
    (List.nth evs 1).Eventlog.ev_attrs;
  check
    Alcotest.(list (pair string int))
    "cumulative counts sorted"
    [ ("a.one", 2); ("a.two", 1) ]
    (Eventlog.counts ());
  let newest = Eventlog.recent ~limit:1 () in
  check Alcotest.int "limit keeps the newest" 2
    (List.hd newest).Eventlog.ev_seq;
  Eventlog.reset ()

let test_ring_wraparound () =
  Eventlog.reset ();
  Eventlog.set_capacity 4;
  for i = 0 to 9 do
    Eventlog.log (Printf.sprintf "k.%d" (i mod 2))
  done;
  check Alcotest.int "total survives drops" 10 (Eventlog.total ());
  check Alcotest.int "dropped = total - retained" 6 (Eventlog.dropped ());
  let evs = Eventlog.recent () in
  check Alcotest.int "ring holds capacity" 4 (List.length evs);
  check
    Alcotest.(list int)
    "newest retained, in order" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Eventlog.ev_seq) evs);
  check
    Alcotest.(list (pair string int))
    "counts survive wraparound"
    [ ("k.0", 5); ("k.1", 5) ]
    (Eventlog.counts ());
  (* Shrinking keeps the newest; growing keeps everything retained. *)
  Eventlog.set_capacity 2;
  check
    Alcotest.(list int)
    "shrink keeps newest" [ 8; 9 ]
    (List.map (fun e -> e.Eventlog.ev_seq) (Eventlog.recent ()));
  Eventlog.set_capacity 8;
  Eventlog.log "k.0";
  check
    Alcotest.(list int)
    "grow retains and appends" [ 8; 9; 10 ]
    (List.map (fun e -> e.Eventlog.ev_seq) (Eventlog.recent ()));
  Eventlog.reset ();
  Eventlog.set_capacity Eventlog.default_capacity

let ring_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"ring never exceeds capacity and retains the newest events"
       ~count:200
       QCheck2.Gen.(pair (1 -- 40) (0 -- 200))
       (fun (cap, n) ->
         Eventlog.reset ();
         Eventlog.set_capacity cap;
         for i = 0 to n - 1 do
           Eventlog.log (Printf.sprintf "p.%d" (i mod 3))
         done;
         let evs = Eventlog.recent () in
         let len = List.length evs in
         let expect_len = min cap n in
         let seqs = List.map (fun e -> e.Eventlog.ev_seq) evs in
         let expect_seqs = List.init expect_len (fun i -> n - expect_len + i) in
         let ok =
           len = expect_len && seqs = expect_seqs
           && Eventlog.total () = n
           && Eventlog.dropped () = n - expect_len
           && List.fold_left (fun a (_, c) -> a + c) 0 (Eventlog.counts ()) = n
         in
         Eventlog.reset ();
         Eventlog.set_capacity Eventlog.default_capacity;
         ok))

let test_ndjson () =
  Eventlog.reset ();
  Eventlog.log "x.start" ~attrs:[ ("mode", "m\"1"); ("n", "2") ];
  Eventlog.log "x.finish";
  let nd = Eventlog.to_ndjson () in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' nd)
  in
  check Alcotest.int "header + one line per event" 3 (List.length lines);
  (match Json_read.parse_json (List.hd lines) with
  | j ->
    check Alcotest.(option string) "schema header"
      (Some Eventlog.schema_version)
      (match Json_read.member "schema" j with
      | Some (Json_read.Str s) -> Some s
      | _ -> None);
    check Alcotest.bool "header total" true
      (Json_read.member "total" j = Some (Json_read.Num 2.))
  | exception Json_read.Parse_error e ->
    Alcotest.failf "NDJSON header does not parse: %s" e);
  List.iteri
    (fun i line ->
      match Json_read.parse_json line with
      | j ->
        if i > 0 then
          check Alcotest.bool
            (Printf.sprintf "line %d has seq" i)
            true
            (Json_read.member "seq" j <> None)
      | exception Json_read.Parse_error e ->
        Alcotest.failf "NDJSON line %d does not parse: %s (%s)" i e line)
    lines;
  (* ?limit keeps the newest events but the exact cumulative header. *)
  let limited = Eventlog.to_ndjson ~limit:1 () in
  let llines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' limited)
  in
  check Alcotest.int "limited export" 2 (List.length llines);
  check Alcotest.bool "limited keeps the newest" true
    (let j = Json_read.parse_json (List.nth llines 1) in
     Json_read.member "kind" j = Some (Json_read.Str "x.finish"));
  Eventlog.reset ()

(* ------------------------------------------------------------------ *)
(* Progress                                                            *)

let tracker name =
  match
    List.find_opt (fun t -> t.Progress.tr_name = name) (Progress.snapshot ())
  with
  | Some t -> t
  | None -> Alcotest.failf "tracker %s not found" name

let test_progress_accumulation () =
  Progress.reset ();
  Progress.add_total ~by:4 "t.a";
  Progress.tick "t.a";
  Progress.tick ~by:2 "t.a";
  let t = tracker "t.a" in
  check Alcotest.int "done" 3 t.Progress.tr_done;
  check Alcotest.int "total" 4 t.Progress.tr_total;
  check Alcotest.bool "not finished" false t.Progress.tr_finished;
  check Alcotest.bool "eta present once work is done" true
    (t.Progress.tr_eta_s <> None);
  (* Concurrent producers accumulate. *)
  Progress.add_total ~by:6 "t.a";
  check Alcotest.int "totals accumulate" 10 (tracker "t.a").Progress.tr_total;
  Progress.finish "t.a";
  let t = tracker "t.a" in
  check Alcotest.bool "finished" true t.Progress.tr_finished;
  check Alcotest.int "finish snaps done to total" 10 t.Progress.tr_done;
  (* A later add_total rearms the tracker (repeated STA sweeps). *)
  Progress.add_total ~by:2 "t.a";
  let t = tracker "t.a" in
  check Alcotest.bool "rearmed" false t.Progress.tr_finished;
  Progress.reset ()

let test_progress_json () =
  Progress.reset ();
  Progress.add_total ~by:3 "merge.load";
  Progress.tick "merge.load";
  Progress.add_total ~by:5 "pool.tasks";
  let j = Json_read.parse_json (Progress.to_json ()) in
  (match Json_read.member "trackers" j with
  | Some (Json_read.Arr ts) ->
    check Alcotest.int "one entry per tracker" 2 (List.length ts);
    List.iter
      (fun t ->
        List.iter
          (fun f ->
            check Alcotest.bool
              (Printf.sprintf "tracker field %s" f)
              true
              (Json_read.member f t <> None))
          [ "name"; "done"; "total"; "elapsed_s"; "finished" ])
      ts
  | _ -> Alcotest.fail "no trackers array");
  (match Json_read.member "overall" j with
  | Some o ->
    check Alcotest.bool "overall counts merge stages" true
      (Json_read.member "units_total" o = Some (Json_read.Num 3.))
  | None -> Alcotest.fail "no overall object");
  Progress.reset ()

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)

let hist samples =
  match samples with
  | [] ->
    {
      Metrics.h_count = 0;
      h_sum = 0.;
      h_min = infinity;
      h_max = neg_infinity;
      h_samples = [];
    }
  | _ ->
    {
      Metrics.h_count = List.length samples;
      h_sum = List.fold_left ( +. ) 0. samples;
      h_min = List.fold_left Float.min infinity samples;
      h_max = List.fold_left Float.max neg_infinity samples;
      h_samples = samples;
    }

let test_prometheus_golden () =
  let items =
    [
      { Metrics.name = "merge.cliques"; value = Metrics.Counter 3 };
      { Metrics.name = "pool.util"; value = Metrics.Gauge 0.5 };
      { Metrics.name = "9weird-name!x"; value = Metrics.Counter 1 };
      { Metrics.name = "t.single"; value = Metrics.Histogram (hist [ 2.5 ]) };
      { Metrics.name = "t.empty"; value = Metrics.Histogram (hist []) };
    ]
  in
  let expect =
    String.concat "\n"
      [
        "# TYPE merge_cliques counter";
        "merge_cliques 3";
        "# TYPE pool_util gauge";
        "pool_util 0.5";
        "# TYPE _9weird_name_x counter";
        "_9weird_name_x 1";
        "# TYPE t_single histogram";
        "t_single_bucket{le=\"2.5\"} 1";
        "t_single_bucket{le=\"+Inf\"} 1";
        "t_single_sum 2.5";
        "t_single_count 1";
        "# TYPE t_empty histogram";
        "t_empty_bucket{le=\"+Inf\"} 0";
        "t_empty_sum 0";
        "t_empty_count 0";
        "";
      ]
  in
  check Alcotest.string "golden exposition" expect
    (Metrics.prometheus_of_items items)

let bucket_series name text =
  (* All (le, cumulative) pairs of [name]'s bucket lines, in order. *)
  List.filter_map
    (fun line ->
      let prefix = name ^ "_bucket{le=\"" in
      if String.length line > String.length prefix
         && String.sub line 0 (String.length prefix) = prefix
      then
        let rest =
          String.sub line (String.length prefix)
            (String.length line - String.length prefix)
        in
        match String.index_opt rest '"' with
        | Some q ->
          let le = String.sub rest 0 q in
          let count =
            int_of_string
              (String.trim
                 (String.sub rest (q + 2) (String.length rest - q - 2)))
          in
          Some (le, count)
        | None -> None
      else None)
    (String.split_on_char '\n' text)

let prometheus_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"histogram bucket series is monotone and ends at the exact count"
       ~count:300
       QCheck2.Gen.(list_size (0 -- 60) (float_bound_inclusive 50.))
       (fun samples ->
         let items =
           [ { Metrics.name = "q.h"; value = Metrics.Histogram (hist samples) } ]
         in
         let text = Metrics.prometheus_of_items items in
         let series = bucket_series "q_h" text in
         let counts = List.map snd series in
         let rec monotone = function
           | a :: (b :: _ as tl) -> a <= b && monotone tl
           | _ -> true
         in
         series <> []
         && monotone counts
         && fst (List.nth series (List.length series - 1)) = "+Inf"
         && List.nth counts (List.length counts - 1) = List.length samples))

let test_percentile_degenerate () =
  (* Satellite of the histogram guard: an empty reservoir must not
     raise, a single sample is every percentile. *)
  check (Alcotest.float 1e-9) "empty histogram percentile" 0.
    (Metrics.percentile (hist []) 0.5);
  check (Alcotest.float 1e-9) "single-sample p50" 7.25
    (Metrics.percentile (hist [ 7.25 ]) 0.5);
  check (Alcotest.float 1e-9) "single-sample p99" 7.25
    (Metrics.percentile (hist [ 7.25 ]) 0.99);
  (* The JSON renderer hits the same path on an observed-once metric. *)
  Metrics.reset ();
  Metrics.observe "one.sample" 1.5;
  let j = Json_read.parse_json (Metrics.to_json ()) in
  (match Json_read.member "one.sample" j with
  | Some h ->
    check Alcotest.bool "p99 of one sample" true
      (Json_read.member "p99" h = Some (Json_read.Num 1.5))
  | None -> Alcotest.fail "observed metric missing from JSON");
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Httpd                                                               *)

let with_httpd handler f =
  let srv = Httpd.start ~addr:"127.0.0.1" ~port:0 handler in
  Fun.protect ~finally:(fun () -> Httpd.stop srv) (fun () -> f srv)

let test_httpd_roundtrip () =
  with_httpd
    (fun rq ->
      match rq.Httpd.rq_path with
      | "/hello" -> Httpd.respond "world"
      | "/echo" ->
        Httpd.respond
          (String.concat ";"
             (List.map (fun (k, v) -> k ^ "=" ^ v) rq.Httpd.rq_query))
      | "/boom" -> failwith "handler crash"
      | _ -> Httpd.not_found)
    (fun srv ->
      let port = Httpd.port srv in
      check Alcotest.bool "OS assigned a real port" true (port > 0);
      check
        Alcotest.(pair int string)
        "basic GET" (200, "world")
        (Httpd.get ~port "/hello");
      check
        Alcotest.(pair int string)
        "query decoding" (200, "a=1;b=x y")
        (Httpd.get ~port "/echo?a=1&b=x%20y");
      check Alcotest.int "unknown path is 404" 404
        (fst (Httpd.get ~port "/nope"));
      check Alcotest.int "handler exception is 500" 500
        (fst (Httpd.get ~port "/boom"));
      (* Sequential connections: one request per connection. *)
      check Alcotest.int "second request served" 200
        (fst (Httpd.get ~port "/hello")))

(* A POST with a body, sent over a raw socket because the client sends
   no bodies; returns the status and the lowercased response headers. *)
let raw_post ~port path body =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf
      "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s" path
      (String.length body) body
  in
  ignore (Unix.write_substring sock req 0 (String.length req));
  let ic = Unix.in_channel_of_descr sock in
  let line () = String.trim (input_line ic) in
  let status = Scanf.sscanf (line ()) "HTTP/1.1 %d" Fun.id in
  let rec headers acc =
    match line () with
    | "" -> List.rev acc
    | l -> (
      match String.index_opt l ':' with
      | None -> headers acc
      | Some c ->
        headers
          (( String.lowercase_ascii (String.sub l 0 c),
             String.trim (String.sub l (c + 1) (String.length l - c - 1)) )
          :: acc))
  in
  status, headers []

let test_httpd_limits () =
  let calls = Atomic.make 0 in
  let srv =
    Httpd.start ~addr:"127.0.0.1" ~port:0 ~max_header_bytes:1024 (fun _ ->
        Atomic.incr calls;
        Httpd.respond "ok")
  in
  Fun.protect ~finally:(fun () -> Httpd.stop srv) @@ fun () ->
  let port = Httpd.port srv in
  let status, _, _ = Httpd.request ~port ("/" ^ String.make 1200 'h') in
  check Alcotest.int "over-limit header block is 413" 413 status;
  let refused meth (status, headers) =
    check Alcotest.int (meth ^ " is 405") 405 status;
    check
      Alcotest.(option string)
      (meth ^ " 405 carries Allow") (Some "GET, HEAD")
      (Httpd.header "allow" headers)
  in
  List.iter
    (fun meth ->
      let status, headers, _ = Httpd.request ~meth ~port "/x" in
      refused meth (status, headers))
    [ "PUT"; "DELETE" ];
  refused "POST with a body" (raw_post ~port "/x" "payload");
  check Alcotest.int "refused requests never reach the handler" 0
    (Atomic.get calls);
  let status, _, _ = Httpd.request ~meth:"HEAD" ~port "/x" in
  check Alcotest.int "HEAD is answered 200" 200 status;
  check Alcotest.int "HEAD reaches the handler" 1 (Atomic.get calls)

let test_httpd_stop_idempotent () =
  let srv = Httpd.start ~addr:"127.0.0.1" ~port:0 (fun _ -> Httpd.not_found) in
  Httpd.stop srv;
  Httpd.stop srv;
  check Alcotest.bool "stopped twice without raising" true true

(* ------------------------------------------------------------------ *)
(* Serve: spec parsing and the routing handler                         *)

let test_parse_spec () =
  let ok = Alcotest.(result (pair string int) string) in
  let show = function
    | Ok (a, p) -> Ok (a, p)
    | Error _ -> Error "error"
  in
  let parse s = show (Serve.parse_spec s) in
  check ok "bare port" (Ok ("127.0.0.1", 9090)) (parse "9090");
  check ok "addr:port" (Ok ("0.0.0.0", 0)) (parse "0.0.0.0:0");
  check ok "hostname" (Ok ("localhost", 8080)) (parse "localhost:8080");
  List.iter
    (fun bad ->
      match Serve.parse_spec bad with
      | Ok (a, p) -> Alcotest.failf "%S parsed as %s:%d" bad a p
      | Error _ -> ())
    [ ""; "notaport"; "70000"; "-1"; ":8080"; "127.0.0.1:"; "a:b:c" ]

let test_serve_endpoints () =
  Eventlog.reset ();
  Progress.reset ();
  Metrics.reset ();
  Metrics.incr "serve.test_counter";
  Progress.add_total ~by:2 "merge.load";
  Eventlog.log "x.alpha";
  Eventlog.log "x.beta";
  let srv = Serve.start ~addr:"127.0.0.1" ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let port = Serve.port srv in
      let body path =
        let status, body = Httpd.get ~port path in
        check Alcotest.int (path ^ " is 200") 200 status;
        body
      in
      (* /healthz: parses, says ok, reflects the journal. *)
      let h = Json_read.parse_json (body "/healthz") in
      check Alcotest.bool "healthz ok" true
        (Json_read.member "status" h = Some (Json_read.Str "ok"));
      check Alcotest.bool "healthz ladder" true
        (Json_read.member "ladder" h = Some (Json_read.Str "nominal"));
      (* /progress: the tracker we created is visible. *)
      let p = Json_read.parse_json (body "/progress") in
      (match Json_read.member "trackers" p with
      | Some (Json_read.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "progress lost the tracker");
      (* /metrics: Prometheus text with the sanitised counter. *)
      let m = body "/metrics" in
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec find i =
          i + nl <= hl && (String.sub hay i nl = needle || find (i + 1))
        in
        find 0
      in
      check Alcotest.bool "metrics exposes the sanitised counter" true
        (contains "# TYPE serve_test_counter counter" m
        && contains "serve_test_counter 1" m);
      (* /events: header + the two journal lines (serve.start is third). *)
      let e = body "/events" in
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' e) in
      check Alcotest.bool "events has header + events" true
        (List.length lines >= 3);
      check Alcotest.bool "events header schema" true
        (let j = Json_read.parse_json (List.hd lines) in
         Json_read.member "schema" j = Some (Json_read.Str Eventlog.schema_version));
      (* ?n= keeps the newest n events. *)
      let e1 = body "/events?n=1" in
      let l1 = List.filter (fun l -> l <> "") (String.split_on_char '\n' e1) in
      check Alcotest.int "events?n=1" 2 (List.length l1);
      check Alcotest.bool "events?n=1 keeps newest" true
        (let j = Json_read.parse_json (List.nth l1 1) in
         Json_read.member "kind" j = Some (Json_read.Str "serve.start"));
      (* /trace parses as JSON. *)
      ignore (Json_read.parse_json (body "/trace"));
      (* / is an index; unknown paths 404. *)
      ignore (body "/");
      check Alcotest.int "404" 404 (fst (Httpd.get ~port "/definitely-not"));
      (* serve.start was journaled with the bound address. *)
      check Alcotest.bool "serve.start journaled" true
        (List.exists
           (fun ev ->
             ev.Eventlog.ev_kind = "serve.start"
             && List.assoc_opt "port" ev.Eventlog.ev_attrs
                = Some (string_of_int port))
           (Eventlog.recent ())));
  Eventlog.reset ();
  Progress.reset ();
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* DESIGN.md §15 event-kind taxonomy vs. a real run                    *)

type entry = { e_name : string; e_always : bool }

let design_md =
  if Sys.file_exists "../DESIGN.md" then "../DESIGN.md" else "DESIGN.md"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let parse_row line =
  if not (starts_with "|" (String.trim line)) then None
  else
    let cells =
      String.split_on_char '|' line |> List.map String.trim
      |> List.filter (fun c -> c <> "")
    in
    match cells with
    | name :: rest
      when String.length name > 2
           && name.[0] = '`'
           && name.[String.length name - 1] = '`' ->
      let e_name = String.sub name 1 (String.length name - 2) in
      let when_cell =
        List.find_opt
          (fun c -> c = "always" || starts_with "conditional" c)
          rest
      in
      (match when_cell with
      | Some w -> Some { e_name; e_always = w = "always" }
      | None ->
        Alcotest.failf "DESIGN.md §15 row for `%s` has no when column" e_name)
    | _ -> None

let kind_table =
  lazy
    (let lines = String.split_on_char '\n' (read_file design_md) in
     let rows = ref [] in
     let in_s15 = ref false and in_kinds = ref false in
     List.iter
       (fun line ->
         if starts_with "## 15." line then in_s15 := true
         else if starts_with "## " line then in_s15 := false
         else if !in_s15 then
           if starts_with "### " line then
             in_kinds := starts_with "### Event kinds" line
           else if !in_kinds then
             match parse_row line with
             | Some e -> rows := e :: !rows
             | None -> ())
       lines;
     List.rev !rows)

let emitted_kinds =
  lazy
    (Eventlog.reset ();
     let params =
       {
         Gen_design.default_params with
         Gen_design.seed = 7;
         n_domains = 2;
         regs_per_domain = 24;
       }
     in
     let design, info = Gen_design.generate params in
     let suite =
       {
         Gen_modes.sp_seed = 8;
         families = [ 3; 2 ];
         base_period = 2.0;
         scan_family = true;
       }
     in
     let sources =
       List.concat
         (List.mapi
            (fun family n ->
              List.init n (fun index ->
                  {
                    Merge_flow.src_name = Printf.sprintf "m%d_%d" family index;
                    src_file = None;
                    src_text =
                      Gen_modes.sdc_of_mode_spec info suite ~family ~index;
                  }))
            suite.Gen_modes.families)
     in
     ignore (Merge_flow.run_sources ~jobs:2 ~design sources);
     (* The serve lifecycle is part of the taxonomy; bring a server up
        so `serve.start` counts as exercised. *)
     let srv = Serve.start ~addr:"127.0.0.1" ~port:0 () in
     Serve.stop srv;
     let kinds = SS.of_list (List.map fst (Eventlog.counts ())) in
     Eventlog.reset ();
     kinds)

let test_taxonomy_table_parses () =
  let t = Lazy.force kind_table in
  check Alcotest.bool "event-kind table found" true (List.length t >= 12);
  let sorted = List.sort compare (List.map (fun e -> e.e_name) t) in
  let rec dup = function
    | a :: b :: _ when a = b -> Some a
    | _ :: rest -> dup rest
    | [] -> None
  in
  (match dup sorted with
  | Some name -> Alcotest.failf "duplicate event-kind row: %s" name
  | None -> ());
  List.iter
    (fun e ->
      check Alcotest.bool
        (Printf.sprintf "%s is dotted" e.e_name)
        true
        (String.contains e.e_name '.'))
    t

let test_taxonomy_bidirectional () =
  let table = Lazy.force kind_table in
  let emitted = Lazy.force emitted_kinds in
  let documented = SS.of_list (List.map (fun e -> e.e_name) table) in
  let always =
    SS.of_list
      (List.filter_map
         (fun e -> if e.e_always then Some e.e_name else None)
         table)
  in
  let missing = SS.diff always emitted in
  if not (SS.is_empty missing) then
    Alcotest.failf
      "event kinds documented as `always` in DESIGN.md §15 but not emitted \
       by the reference run: %s"
      (String.concat ", " (SS.elements missing));
  let undocumented = SS.diff emitted documented in
  if not (SS.is_empty undocumented) then
    Alcotest.failf
      "event kinds emitted but missing from the DESIGN.md §15 table: %s"
      (String.concat ", " (SS.elements undocumented))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "eventlog"
    [
      ( "ring",
        [
          tc "log / recent / counts basics" test_ring_basics;
          tc "wraparound keeps the newest, counters survive"
            test_ring_wraparound;
          ring_property;
          tc "NDJSON export is schema-versioned and parseable" test_ndjson;
        ] );
      ( "progress",
        [
          tc "totals accumulate, finish snaps, rearm works"
            test_progress_accumulation;
          tc "/progress JSON shape" test_progress_json;
        ] );
      ( "prometheus",
        [
          tc "golden exposition (sanitised names, histograms)"
            test_prometheus_golden;
          prometheus_monotone;
          tc "empty and single-sample percentiles" test_percentile_degenerate;
        ] );
      ( "http",
        [
          tc "Httpd round-trip on an OS-assigned port" test_httpd_roundtrip;
          tc "Httpd.stop is idempotent" test_httpd_stop_idempotent;
          tc "Httpd limits (413) and methods (405)" test_httpd_limits;
          tc "--serve spec parsing" test_parse_spec;
          tc "every Serve endpoint answers over a real socket"
            test_serve_endpoints;
        ] );
      ( "taxonomy",
        [
          tc "§15 event-kind table parses out of DESIGN.md"
            test_taxonomy_table_parses;
          tc "every `always` kind emitted, every emitted kind documented"
            test_taxonomy_bidirectional;
        ] );
    ]
