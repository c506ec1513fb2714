(* @eventlog: the telemetry plane's in-process contracts.

   Four layers:

   - Eventlog ring semantics: bounded capacity, gap-free sequence
     numbers, newest-retention under wraparound (unit tests plus a
     QCheck property over random log counts past the capacity), and
     the schema-versioned NDJSON export.
   - Progress: tracker accumulation and ETA presence, the /progress
     JSON shape with the stage read from the journal, pool.tasks ticks
     per settled task, the state after a merge, and the shared
     sta.pins tracker.
   - Prometheus exposition: a golden rendering of a controlled
     registry, name sanitisation, empty/single-sample histograms and
     bounds that print alike, and a QCheck property that bucket series
     are monotone and end at the exact count.
   - The HTTP plane: Serve against a real socket on an OS-assigned
     port (404/405/413, a chaos-injected 500, HEAD), the --serve spec
     parser, every endpoint, and the DESIGN.md §15 event-kind table
     checked bidirectionally against a real merge run (the same
     contract style as the §9 taxonomy suite). *)

module Eventlog = Mm_util.Eventlog
module Progress = Mm_util.Progress
module Metrics = Mm_util.Metrics
module Obs = Mm_util.Obs
module Chaos = Mm_util.Chaos
module Govern = Mm_util.Govern
module Serve = Mm_util.Serve
module Pool = Mm_util.Pool
module Sta = Mm_timing.Sta
module Merge_flow = Mm_core.Merge_flow
module Gen_design = Mm_workload.Gen_design
module Gen_modes = Mm_workload.Gen_modes
module Presets = Mm_workload.Presets

let () = Printexc.record_backtrace true

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

module SS = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Eventlog ring                                                       *)

(* The ring's fixed capacity: Eventlog keeps the newest 4096 events. *)
let ring_cap = 4096

let test_ring_basics () =
  Eventlog.reset ();
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
  let newest = Eventlog.recent ~limit:1 () in
  check Alcotest.int "limit keeps the newest" 2
    (List.hd newest).Eventlog.ev_seq;
  Eventlog.reset ()

let test_ring_wraparound () =
  Eventlog.reset ();
  let n = ring_cap + 6 in
  for i = 0 to n - 1 do
    Eventlog.log (Printf.sprintf "k.%d" (i mod 2))
  done;
  check Alcotest.int "total survives drops" n (Eventlog.total ());
  check Alcotest.int "dropped = total - retained" 6 (Eventlog.dropped ());
  let evs = Eventlog.recent () in
  check Alcotest.int "ring holds capacity" ring_cap (List.length evs);
  check
    Alcotest.(list int)
    "newest retained, in order"
    (List.init ring_cap (fun i -> 6 + i))
    (List.map (fun e -> e.Eventlog.ev_seq) evs);
  check
    Alcotest.(list string)
    "kinds follow their events" [ "k.0"; "k.1" ]
    (List.map (fun e -> e.Eventlog.ev_kind) (Eventlog.recent ~limit:2 ()));
  Eventlog.reset ()

let ring_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"ring never exceeds capacity and retains the newest events"
       ~count:200
       QCheck2.Gen.(0 -- (3 * ring_cap))
       (fun n ->
         Eventlog.reset ();
         for i = 0 to n - 1 do
           Eventlog.log (Printf.sprintf "p.%d" (i mod 3))
         done;
         let evs = Eventlog.recent () in
         let len = List.length evs in
         let expect_len = min ring_cap n in
         let seqs = List.map (fun e -> e.Eventlog.ev_seq) evs in
         let expect_seqs = List.init expect_len (fun i -> n - expect_len + i) in
         let ok =
           len = expect_len && seqs = expect_seqs
           && Eventlog.total () = n
           && Eventlog.dropped () = n - expect_len
         in
         Eventlog.reset ();
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

let test_progress_accumulation () =
  Progress.reset ();
  let t = Progress.sta_pins in
  Progress.add_total t 4;
  Progress.tick t;
  Progress.tick ~by:2 t;
  let v = Progress.view t in
  check Alcotest.int "done" 3 v.Progress.tr_done;
  check Alcotest.int "total" 4 v.Progress.tr_total;
  check Alcotest.bool "eta present once work is done" true
    (v.Progress.tr_eta_s <> None);
  (* Concurrent producers accumulate. *)
  Progress.add_total t 6;
  check Alcotest.int "totals accumulate" 10 (Progress.view t).Progress.tr_total;
  Progress.reset ()

let progress_json () = Json_read.parse_json (Progress.to_json ())

let test_progress_json () =
  Progress.reset ();
  Eventlog.reset ();
  (* An older run's open stage is forgotten at the newest run.start. *)
  List.iter
    (fun (kind, stage) -> Eventlog.log kind ~attrs:[ "stage", stage ])
    [ "run.start", ""; "stage.start", "old";
      "run.start", ""; "stage.start", "load"; "stage.finish", "load";
      "stage.start", "mergeability" ];
  Progress.add_total Progress.pool_tasks 5;
  let j = progress_json () in
  check Alcotest.bool "stage is the open one" true
    (Json_read.member "stage" j = Some (Json_read.Str "mergeability"));
  check Alcotest.bool "stages_done counts this run's finishes" true
    (Json_read.member "stages_done" j = Some (Json_read.Num 1.));
  (match Json_read.member "trackers" j with
  | Some (Json_read.Arr [ t ]) ->
    check Alcotest.bool "only the active tracker" true
      (Json_read.member "name" t = Some (Json_read.Str "pool.tasks"));
    List.iter
      (fun f ->
        check Alcotest.bool
          (Printf.sprintf "tracker field %s" f)
          true
          (Json_read.member f t <> None))
      [ "name"; "done"; "total"; "elapsed_s"; "eta_s" ]
  | _ -> Alcotest.fail "expected exactly one tracker");
  Eventlog.reset ();
  Progress.reset ()

(* Task k of a jobs=1 batch sees the k tasks before it settled; a
   batch drained by an expired budget still settles every task. *)
let test_pool_tasks_tracker () =
  Progress.reset ();
  Pool.with_pool ~jobs:1 (fun pool ->
      let seen =
        Pool.map pool
          (fun k -> k, (Progress.view Progress.pool_tasks).Progress.tr_done)
          (List.init 5 Fun.id)
      in
      List.iter
        (fun (k, d) ->
          check Alcotest.int (Printf.sprintf "task %d sees done = %d" k k) k d)
        seen);
  Pool.with_pool ~jobs:2 (fun pool ->
      ignore
        (Pool.map_outcome pool ~govern:(Govern.create ~deadline_s:0. ())
           Fun.id [ 1; 2; 3 ]));
  let v = Progress.view Progress.pool_tasks in
  check Alcotest.int "total" 8 v.Progress.tr_total;
  check Alcotest.int "drained tasks tick" 8 v.Progress.tr_done;
  Progress.reset ()

(* After a merge, the journal says every stage finished and no
   merge-stage tracker exists. *)
let test_progress_after_merge () =
  Progress.reset ();
  let _design, _info, modes = Presets.build Presets.tiny in
  ignore (Merge_flow.run ~jobs:1 modes);
  let j = progress_json () in
  check Alcotest.bool "no open stage" true
    (Json_read.member "stage" j = Some Json_read.Null);
  check Alcotest.bool "three stages done" true
    (Json_read.member "stages_done" j = Some (Json_read.Num 3.));
  (match Json_read.member "trackers" j with
  | Some (Json_read.Arr ts) ->
    List.iter
      (fun t ->
        match Json_read.member "name" t with
        | Some (Json_read.Str n) ->
          check Alcotest.bool (n ^ " is not a merge-stage tracker") false
            (String.length n >= 6 && String.sub n 0 6 = "merge.")
        | _ -> Alcotest.fail "tracker without a name")
      ts
  | _ -> Alcotest.fail "no trackers array");
  Progress.reset ()

(* Another sweep is in flight with 5 blocks registered when one
   analysis of preset C runs start to end: the ended sweep must leave
   the shared tracker's other blocks outstanding. *)
let test_sta_pins_shared () =
  Progress.reset ();
  let t = Progress.sta_pins in
  Progress.add_total t 5;
  let design, _info, modes = Presets.build Presets.design_c in
  ignore (Sta.analyze design (List.hd modes));
  let v = Progress.view t in
  check Alcotest.int "the ended sweep ticked all its blocks"
    (v.Progress.tr_total - 5) v.Progress.tr_done;
  (* A sweep cut short by an expired budget still ticks its blocks. *)
  (match
     Govern.with_current (Govern.create ~deadline_s:0. ()) (fun () ->
         Sta.analyze design (List.hd modes))
   with
  | _ -> Alcotest.fail "an interrupted sweep returned"
  | exception Govern.Cancelled _ -> ());
  let v = Progress.view t in
  check Alcotest.int "the interrupted sweep ticked all its blocks"
    (v.Progress.tr_total - 5) v.Progress.tr_done;
  Progress.tick ~by:5 t;
  let v = Progress.view t in
  check Alcotest.int "done = total once every sweep ended"
    v.Progress.tr_total v.Progress.tr_done;
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
      (* Samples closer than %.9g can show (plausible for the clamped
         pool.occupancy): all eight log-spaced bounds print as "1", so
         one le="1" line carries the last bound's count. *)
      {
        Metrics.name = "pool.occupancy";
        value = Metrics.Histogram (hist [ 1.0; 1.0000000001 ]);
      };
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
        "# TYPE pool_occupancy histogram";
        "pool_occupancy_bucket{le=\"1\"} 2";
        "pool_occupancy_bucket{le=\"+Inf\"} 2";
        "pool_occupancy_sum 2";
        "pool_occupancy_count 2";
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
(* Serve over a real socket                                            *)

let with_serve f =
  let srv = Serve.start ~addr:"127.0.0.1" ~port:0 () in
  Fun.protect ~finally:(fun () -> Serve.stop srv) (fun () -> f (Serve.port srv))

let nonempty_lines s =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let configure_chaos spec =
  match Chaos.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chaos spec %S: %s" spec e

let test_serve_roundtrip () =
  Eventlog.reset ();
  Eventlog.log "x.alpha";
  Eventlog.log "x.beta";
  with_serve (fun port ->
      check Alcotest.bool "OS assigned a real port" true (port > 0);
      check Alcotest.int "basic GET" 200 (fst (Http_client.get ~port "/"));
      (* The query splits on '&', then keys and values are
         percent-decoded: %31 is "1", %6E is "n". Either way the body
         is the header line plus the newest event. *)
      List.iter
        (fun target ->
          let status, body = Http_client.get ~port target in
          check Alcotest.int (target ^ ": status") 200 status;
          check Alcotest.int (target ^ " keeps one event") 2
            (List.length (nonempty_lines body)))
        [ "/events?n=%31"; "/events?x=a%20b&n=%31"; "/events?%6E=1";
          "/events?x=%zz&n=1&y=%3" ];
      (* The path is decoded before routing too: %6D is "m". *)
      check Alcotest.int "decoded path" 200
        (fst (Http_client.get ~port "/%6Detrics"));
      check Alcotest.int "unknown path is 404" 404
        (fst (Http_client.get ~port "/nope"));
      (* A fault while routing is a 500, and serving goes on. *)
      configure_chaos "serve.request@1=raise";
      Fun.protect ~finally:Chaos.clear (fun () ->
          check Alcotest.int "routing fault is 500" 500
            (fst (Http_client.get ~port "/"));
          (* Sequential connections: one request per connection. *)
          check Alcotest.int "next request served" 200
            (fst (Http_client.get ~port "/"))));
  Eventlog.reset ()

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

let test_serve_limits () =
  with_serve @@ fun port ->
  (* Every routed request passes the serve.request site; a plan that
     never fires counts them. *)
  configure_chaos "serve.request@1000000=raise";
  Fun.protect ~finally:Chaos.clear @@ fun () ->
  let routed () = Chaos.hit_count "serve.request" in
  let status, _, _ =
    Http_client.request ~port ("/" ^ String.make ((16 * 1024) + 16) 'h')
  in
  check Alcotest.int "header block over 16 KiB is 413" 413 status;
  let refused meth (status, headers) =
    check Alcotest.int (meth ^ " is 405") 405 status;
    check
      Alcotest.(option string)
      (meth ^ " 405 carries Allow") (Some "GET, HEAD")
      (Http_client.header "allow" headers)
  in
  List.iter
    (fun meth ->
      let status, headers, _ = Http_client.request ~meth ~port "/" in
      refused meth (status, headers))
    [ "PUT"; "DELETE" ];
  refused "POST with a body" (raw_post ~port "/" "payload");
  check Alcotest.int "refused requests are never routed" 0 (routed ());
  let status, headers, body =
    Http_client.request ~meth:"HEAD" ~port "/healthz"
  in
  check Alcotest.int "HEAD is routed" 1 (routed ());
  check Alcotest.int "HEAD /healthz is 200" 200 status;
  check
    Alcotest.(option string)
    "HEAD carries the GET content type" (Some "application/json")
    (Http_client.header "content-type" headers);
  check Alcotest.bool "HEAD carries a positive Content-Length" true
    (match
       Option.bind (Http_client.header "content-length" headers)
         int_of_string_opt
     with
    | Some n -> n > 0
    | None -> false);
  check Alcotest.string "HEAD carries no body" "" body

let test_serve_stop_idempotent () =
  let srv = Serve.start ~addr:"127.0.0.1" ~port:0 () in
  Serve.stop srv;
  Serve.stop srv;
  check Alcotest.bool "stopped twice without raising" true true

(* ------------------------------------------------------------------ *)
(* Serve: spec parsing and the endpoints                               *)

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
    [ ""; "notaport"; "70000"; "-1"; ":8080"; "127.0.0.1:"; "a:b:c"; "0x50";
      "1_0"; "+80"; "127.0.0.1:0x1F90" ]

let test_serve_endpoints () =
  Eventlog.reset ();
  Progress.reset ();
  Metrics.reset ();
  Metrics.incr "serve.test_counter";
  Progress.add_total Progress.pool_tasks 2;
  Eventlog.log "x.alpha";
  Eventlog.log "x.beta";
  let srv = Serve.start ~addr:"127.0.0.1" ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let port = Serve.port srv in
      let body ?(content_type = "application/json") path =
        let status, headers, body = Http_client.request ~port path in
        check Alcotest.int (path ^ " is 200") 200 status;
        check
          Alcotest.(option string)
          (path ^ " content type") (Some content_type)
          (Http_client.header "content-type" headers);
        body
      in
      (* /healthz: parses, says ok, reflects the journal. *)
      let h = Json_read.parse_json (body "/healthz") in
      check Alcotest.bool "healthz ok" true
        (Json_read.member "status" h = Some (Json_read.Str "ok"));
      check Alcotest.bool "healthz ladder" true
        (Json_read.member "ladder" h = Some (Json_read.Str "nominal"));
      check Alcotest.bool "healthz reports the bound port" true
        (Option.bind (Json_read.member "serve" h) (Json_read.member "port")
        = Some (Json_read.Num (float_of_int port)));
      (* /progress: the tracker we created is visible. *)
      let p = Json_read.parse_json (body "/progress") in
      (match Json_read.member "trackers" p with
      | Some (Json_read.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "progress lost the tracker");
      (* /metrics: Prometheus text with the sanitised counter. *)
      let m =
        body ~content_type:"text/plain; version=0.0.4; charset=utf-8"
          "/metrics"
      in
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
      let e = body ~content_type:"application/x-ndjson" "/events" in
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' e) in
      check Alcotest.bool "events has header + events" true
        (List.length lines >= 3);
      check Alcotest.bool "events header schema" true
        (let j = Json_read.parse_json (List.hd lines) in
         Json_read.member "schema" j = Some (Json_read.Str Eventlog.schema_version));
      (* ?n= keeps the newest n events. *)
      let e1 = body ~content_type:"application/x-ndjson" "/events?n=1" in
      let l1 = List.filter (fun l -> l <> "") (String.split_on_char '\n' e1) in
      check Alcotest.int "events?n=1" 2 (List.length l1);
      check Alcotest.bool "events?n=1 keeps newest" true
        (let j = Json_read.parse_json (List.nth l1 1) in
         Json_read.member "kind" j = Some (Json_read.Str "serve.start"));
      (* /trace parses as JSON. *)
      ignore (Json_read.parse_json (body "/trace"));
      (* / is an index; unknown paths 404. *)
      ignore (body ~content_type:"text/plain; charset=utf-8" "/");
      check Alcotest.int "404" 404
        (fst (Http_client.get ~port "/definitely-not"));
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
     if Eventlog.dropped () > 0 then
       Alcotest.fail "the reference run overflowed the event ring";
     let kinds =
       SS.of_list (List.map (fun e -> e.Eventlog.ev_kind) (Eventlog.recent ()))
     in
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
          tc "totals accumulate and give an ETA" test_progress_accumulation;
          tc "/progress JSON shape" test_progress_json;
          tc "pool.tasks ticks once per settled task" test_pool_tasks_tracker;
          tc "after a merge, no open stage and no merge.* tracker"
            test_progress_after_merge;
          tc "an ended STA sweep leaves sta.pins open" test_sta_pins_shared;
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
          tc "Serve round-trip on an OS-assigned port" test_serve_roundtrip;
          tc "Serve.stop is idempotent" test_serve_stop_idempotent;
          tc "Serve limits (413) and methods (405)" test_serve_limits;
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
