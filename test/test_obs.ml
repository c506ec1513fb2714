(* Obs tracing/metrics: span capture and nesting, registry semantics,
   exporter output, and the span/metric names the pipeline emits —
   those names are a stable contract (DESIGN.md section 9), so a rename
   must fail here. *)

module Obs = Mm_util.Obs
module Metrics = Mm_util.Metrics
module Pc = Mm_workload.Paper_circuit
module Merge_flow = Mm_core.Merge_flow
module Sta = Mm_timing.Sta

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let fresh () =
  Obs.reset ();
  Metrics.reset ();
  Obs.set_enabled true

let span_names () = List.map (fun s -> s.Obs.sp_name) (Obs.spans ())

let contains ~needle hay =
  let nh = String.length needle and lh = String.length hay in
  let rec go i = i + nh <= lh && (String.sub hay i nh = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let span_cases =
  [
    tc "disabled records nothing" (fun () ->
        Obs.reset ();
        Obs.set_enabled false;
        let r = Obs.with_span "off" (fun () -> 41 + 1) in
        check Alcotest.int "result" 42 r;
        check Alcotest.int "no spans" 0 (List.length (Obs.spans ())));
    tc "nesting and order" (fun () ->
        fresh ();
        Obs.with_span "outer" (fun () ->
            Obs.with_span "inner1" (fun () -> ());
            Obs.with_span "inner2" (fun () -> ()));
        Obs.set_enabled false;
        check
          (Alcotest.list Alcotest.string)
          "start order"
          [ "outer"; "inner1"; "inner2" ]
          (span_names ());
        let by_name n =
          List.find (fun s -> s.Obs.sp_name = n) (Obs.spans ())
        in
        let outer = by_name "outer" in
        let inner1 = by_name "inner1" and inner2 = by_name "inner2" in
        check Alcotest.int "outer is a root" (-1) outer.Obs.sp_parent;
        check Alcotest.int "outer depth" 0 outer.Obs.sp_depth;
        check Alcotest.int "inner1 parent" outer.Obs.sp_id inner1.Obs.sp_parent;
        check Alcotest.int "inner2 parent" outer.Obs.sp_id inner2.Obs.sp_parent;
        check Alcotest.int "inner depth" 1 inner1.Obs.sp_depth;
        check Alcotest.bool "inner within outer" true
          (inner1.Obs.sp_start_ns >= outer.Obs.sp_start_ns
          && Int64.add inner2.Obs.sp_start_ns inner2.Obs.sp_dur_ns
             <= Int64.add outer.Obs.sp_start_ns outer.Obs.sp_dur_ns));
    tc "attrs preserved" (fun () ->
        fresh ();
        Obs.with_span ~attrs:[ "mode", "func" ] "s" (fun () -> ());
        Obs.set_enabled false;
        let s = List.hd (Obs.spans ()) in
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "attrs" [ "mode", "func" ] s.Obs.sp_attrs);
    tc "span recorded on exception" (fun () ->
        fresh ();
        (try Obs.with_span "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        Obs.set_enabled false;
        check
          (Alcotest.list Alcotest.string)
          "recorded" [ "boom" ] (span_names ()));
    tc "timed measures even when disabled" (fun () ->
        Obs.reset ();
        Obs.set_enabled false;
        let r, dt = Obs.timed "t" (fun () -> 7) in
        check Alcotest.int "result" 7 r;
        check Alcotest.bool "non-negative duration" true (dt >= 0.);
        check Alcotest.int "no span when disabled" 0
          (List.length (Obs.spans ())));
    tc "span stacks are per-domain" (fun () ->
        (* The open-span stack lives in domain-local storage: a span
           recorded on a spawned domain roots its own tree there and
           never attaches to (or corrupts) the caller's open span. *)
        fresh ();
        Obs.with_span "caller" (fun () ->
            let d =
              Domain.spawn (fun () ->
                  Obs.with_span "worker" (fun () ->
                      Obs.with_span "worker.child" (fun () -> ())))
            in
            Domain.join d;
            Obs.with_span "caller.child" (fun () -> ()));
        Obs.set_enabled false;
        let by_name n = List.find (fun s -> s.Obs.sp_name = n) (Obs.spans ()) in
        let caller = by_name "caller" and worker = by_name "worker" in
        check Alcotest.int "worker roots its own domain" (-1)
          worker.Obs.sp_parent;
        check Alcotest.int "worker child under worker" worker.Obs.sp_id
          (by_name "worker.child").Obs.sp_parent;
        check Alcotest.int "caller nesting unaffected" caller.Obs.sp_id
          (by_name "caller.child").Obs.sp_parent;
        check Alcotest.int "caller still a root" (-1) caller.Obs.sp_parent);
  ]

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let metrics_cases =
  [
    tc "counter accumulates" (fun () ->
        Metrics.reset ();
        Metrics.incr "c";
        Metrics.incr ~by:4 "c";
        check Alcotest.int "value" 5 (Metrics.get_counter "c");
        check Alcotest.int "absent counter is 0" 0 (Metrics.get_counter "nope"));
    tc "gauge overwrites" (fun () ->
        Metrics.reset ();
        Metrics.set "g" 1.5;
        Metrics.set "g" 2.5;
        (match Metrics.get "g" with
        | Some (Metrics.Gauge v) -> check (Alcotest.float 1e-9) "gauge" 2.5 v
        | _ -> Alcotest.fail "expected gauge"));
    tc "histogram summarises" (fun () ->
        Metrics.reset ();
        List.iter (Metrics.observe "h") [ 1.; 2.; 6. ];
        match Metrics.get "h" with
        | Some (Metrics.Histogram h) ->
          check Alcotest.int "count" 3 h.Metrics.h_count;
          check (Alcotest.float 1e-9) "sum" 9. h.Metrics.h_sum;
          check (Alcotest.float 1e-9) "min" 1. h.Metrics.h_min;
          check (Alcotest.float 1e-9) "max" 6. h.Metrics.h_max
        | _ -> Alcotest.fail "expected histogram");
    tc "snapshot is name-sorted" (fun () ->
        Metrics.reset ();
        Metrics.incr "b.two";
        Metrics.incr "a.one";
        check
          (Alcotest.list Alcotest.string)
          "order" [ "a.one"; "b.two" ]
          (List.map (fun i -> i.Metrics.name) (Metrics.snapshot ())));
    tc "json escaping and floats" (fun () ->
        check Alcotest.string "escape" {|a\"b\\c|} (Metrics.json_escape {|a"b\c|});
        check Alcotest.string "nan is 0" "0" (Metrics.json_float Float.nan);
        check Alcotest.string "inf is 0" "0" (Metrics.json_float Float.infinity));
    tc "histogram reservoir caps retention, not the aggregates" (fun () ->
        Metrics.reset ();
        let n = (3 * Metrics.max_samples) + 7 in
        for i = 1 to n do
          Metrics.observe "r" (float_of_int i)
        done;
        match Metrics.get "r" with
        | Some (Metrics.Histogram h) ->
          (* count/sum/min/max stay exact past the cap... *)
          check Alcotest.int "count exact" n h.Metrics.h_count;
          check (Alcotest.float 1e-3) "sum exact"
            (float_of_int (n * (n + 1) / 2))
            h.Metrics.h_sum;
          check (Alcotest.float 1e-9) "min exact" 1. h.Metrics.h_min;
          check (Alcotest.float 1e-9) "max exact" (float_of_int n)
            h.Metrics.h_max;
          (* ...while the sample reservoir is bounded and every
             retained sample is a real observation. *)
          check Alcotest.int "reservoir at capacity" Metrics.max_samples
            (List.length h.Metrics.h_samples);
          check Alcotest.bool "retained values are observations" true
            (List.for_all
               (fun s -> s >= 1. && s <= float_of_int n && Float.is_integer s)
               h.Metrics.h_samples);
          (* Algorithm R keeps the reservoir an unbiased sample, so the
             median estimate must land well inside the range (a
             keep-first-k policy would report ~max_samples/2). *)
          let p50 = Metrics.percentile h 0.5 in
          check Alcotest.bool "p50 is an estimate near the middle" true
            (p50 > float_of_int n *. 0.25 && p50 < float_of_int n *. 0.75)
        | _ -> Alcotest.fail "expected histogram");
    tc "histogram under the cap retains everything" (fun () ->
        Metrics.reset ();
        for i = 1 to 100 do
          Metrics.observe "small" (float_of_int i)
        done;
        match Metrics.get "small" with
        | Some (Metrics.Histogram h) ->
          check Alcotest.int "all samples retained" 100
            (List.length h.Metrics.h_samples);
          (* Below the cap percentiles are exact nearest-rank. *)
          check (Alcotest.float 1e-9) "exact p50" 50.
            (Metrics.percentile h 0.5);
          check (Alcotest.float 1e-9) "exact p99" 99.
            (Metrics.percentile h 0.99)
        | _ -> Alcotest.fail "expected histogram");
  ]

(* ------------------------------------------------------------------ *)
(* GC telemetry and counter samples                                    *)

let gc_cases =
  [
    tc "spans carry GC deltas only when enabled" (fun () ->
        fresh ();
        Obs.with_span "plain" (fun () -> ());
        Obs.set_gc_enabled true;
        Obs.with_span "traced" (fun () ->
            (* Allocate enough to guarantee minor-heap traffic. *)
            ignore (Sys.opaque_identity (Array.init 4096 string_of_int)));
        Obs.set_gc_enabled false;
        Obs.set_enabled false;
        let by_name n = List.find (fun s -> s.Obs.sp_name = n) (Obs.spans ()) in
        check Alcotest.bool "disabled span has no delta" true
          ((by_name "plain").Obs.sp_gc = None);
        match (by_name "traced").Obs.sp_gc with
        | None -> Alcotest.fail "enabled span lost its GC delta"
        | Some g ->
          check Alcotest.bool "allocated minor words" true
            (g.Obs.gd_minor_words > 0.);
          check Alcotest.bool "deltas non-negative" true
            (g.Obs.gd_major_words >= 0.
            && g.Obs.gd_promoted_words >= 0.
            && g.Obs.gd_minor_collections >= 0
            && g.Obs.gd_major_collections >= 0);
          check Alcotest.bool "watermark is a live heap size" true
            (g.Obs.gd_top_heap_words > 0));
    tc "gc_totals exposes the seven gc.* gauges" (fun () ->
        let totals = Obs.gc_totals () in
        check
          (Alcotest.list Alcotest.string)
          "names"
          [
            "gc.minor_words"; "gc.promoted_words"; "gc.major_words";
            "gc.minor_collections"; "gc.major_collections"; "gc.heap_words";
            "gc.top_heap_words";
          ]
          (List.map fst totals);
        check Alcotest.bool "process totals are positive" true
          (List.assoc "gc.minor_words" totals > 0.
          && List.assoc "gc.heap_words" totals > 0.));
    tc "record_gc_metrics lands in the registry" (fun () ->
        Metrics.reset ();
        Obs.record_gc_metrics ();
        match Metrics.get "gc.minor_words" with
        | Some (Metrics.Gauge v) ->
          check Alcotest.bool "gauge positive" true (v > 0.)
        | _ -> Alcotest.fail "gc.minor_words gauge missing");
    tc "samples are gated and time-ordered" (fun () ->
        Obs.reset ();
        Obs.set_enabled false;
        Obs.sample "track" 1.;
        check Alcotest.int "disabled sample dropped" 0
          (List.length (Obs.samples ()));
        Obs.set_enabled true;
        Obs.sample "track" 1.;
        Obs.sample "track" 2.;
        Obs.set_enabled false;
        match Obs.samples () with
        | [ (n1, t1, v1); (n2, t2, v2) ] ->
          check Alcotest.string "name" "track" n1;
          check Alcotest.string "name" "track" n2;
          check (Alcotest.float 1e-9) "first value" 1. v1;
          check (Alcotest.float 1e-9) "second value" 2. v2;
          check Alcotest.bool "time order" true (Int64.compare t1 t2 <= 0)
        | ss -> Alcotest.failf "expected two samples, got %d" (List.length ss));
    tc "GC telemetry emits a gc.heap_words track at span close" (fun () ->
        fresh ();
        Obs.set_gc_enabled true;
        Obs.with_span "s" (fun () -> ());
        Obs.set_gc_enabled false;
        Obs.set_enabled false;
        check Alcotest.bool "heap track sampled" true
          (List.exists
             (fun (n, _, v) -> n = "gc.heap_words" && v > 0.)
             (Obs.samples ())));
  ]

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let exporter_cases =
  [
    tc "profile tree" (fun () ->
        fresh ();
        Obs.with_span "parent" (fun () ->
            Obs.with_span "child" (fun () -> ());
            Obs.with_span "child" (fun () -> ()));
        Obs.set_enabled false;
        let out = Obs.profile_tree () in
        check Alcotest.bool "header" true (contains ~needle:"calls" out);
        check Alcotest.bool "parent row" true (contains ~needle:"parent" out);
        (* Two calls of the same child aggregate into one row. *)
        check Alcotest.bool "child aggregated" true
          (contains ~needle:"  child" out && contains ~needle:" 2 " out));
    tc "trace event json" (fun () ->
        fresh ();
        Obs.with_span ~attrs:[ "k", "v" ] "ev" (fun () -> ());
        Obs.set_enabled false;
        let out = Obs.trace_event_json () in
        check Alcotest.bool "traceEvents array" true
          (contains ~needle:{|"traceEvents":[|} out);
        check Alcotest.bool "complete-event phase" true
          (contains ~needle:{|"ph":"X"|} out);
        check Alcotest.bool "named" true (contains ~needle:{|"name":"ev"|} out);
        check Alcotest.bool "args carry attrs" true
          (contains ~needle:{|"k":"v"|} out);
        check Alcotest.bool "display unit" true
          (contains ~needle:{|"displayTimeUnit"|} out));
    tc "metrics json" (fun () ->
        fresh ();
        Metrics.incr ~by:3 "x.count";
        Obs.with_span "sp" (fun () -> ());
        Obs.set_enabled false;
        let out = Obs.metrics_json () in
        check Alcotest.bool "metrics section" true
          (contains ~needle:{|"x.count":3|} out);
        check Alcotest.bool "span summary" true
          (contains ~needle:{|"sp":{"calls":1|} out));
    tc "trace opens with process/thread metadata" (fun () ->
        fresh ();
        Obs.with_span "ev" (fun () -> ());
        Obs.set_enabled false;
        let out = Obs.trace_event_json () in
        check Alcotest.bool "metadata phase" true
          (contains ~needle:{|"ph":"M"|} out);
        check Alcotest.bool "process name" true
          (contains ~needle:{|"name":"process_name"|} out
          && contains ~needle:{|"name":"modemerge"|} out);
        check Alcotest.bool "thread name labels the driver domain" true
          (contains ~needle:{|"name":"thread_name"|} out
          && contains ~needle:"(driver)" out);
        (* Metadata must precede the first duration event so Perfetto
           applies the labels to every lane. *)
        let idx needle =
          let nl = String.length needle in
          let rec go i =
            if i + nl > String.length out then Alcotest.failf "missing %s" needle
            else if String.sub out i nl = needle then i
            else go (i + 1)
          in
          go 0
        in
        check Alcotest.bool "metadata first" true
          (idx {|"ph":"M"|} < idx {|"ph":"X"|}));
    tc "counter samples export as Perfetto counter events" (fun () ->
        fresh ();
        Obs.with_span "ev" (fun () -> Obs.sample "my.track" 3.5);
        Obs.set_enabled false;
        let out = Obs.trace_event_json () in
        check Alcotest.bool "counter phase" true
          (contains ~needle:{|"ph":"C"|} out);
        check Alcotest.bool "track named" true
          (contains ~needle:{|"name":"my.track"|} out);
        check Alcotest.bool "value in args" true
          (contains ~needle:{|"value":3.5|} out));
    tc "profile tree gains GC columns only with ~gc" (fun () ->
        fresh ();
        Obs.set_gc_enabled true;
        Obs.with_span "alloc" (fun () ->
            ignore (Sys.opaque_identity (List.init 2048 string_of_int)));
        Obs.set_gc_enabled false;
        Obs.set_enabled false;
        let plain = Obs.profile_tree () in
        let gc = Obs.profile_tree ~gc:true () in
        check Alcotest.bool "plain has no alloc column" false
          (contains ~needle:"alloc(Mw)" plain);
        check Alcotest.bool "gc adds alloc column" true
          (contains ~needle:"alloc(Mw)" gc);
        check Alcotest.bool "gc adds collection columns" true
          (contains ~needle:"minGC" gc && contains ~needle:"majGC" gc));
    tc "span_summaries aggregates by name" (fun () ->
        fresh ();
        Obs.with_span "b" (fun () -> Obs.with_span "a" (fun () -> ()));
        Obs.with_span "a" (fun () -> ());
        Obs.set_enabled false;
        match Obs.span_summaries () with
        | [ ("a", calls_a, total_a, self_a); ("b", calls_b, total_b, self_b) ]
          ->
          check Alcotest.int "a calls merged" 2 calls_a;
          check Alcotest.int "b calls" 1 calls_b;
          check Alcotest.bool "totals non-negative" true
            (total_a >= 0. && total_b >= 0.);
          check Alcotest.bool "self within total" true
            (self_a <= total_a +. 1e-9 && self_b <= total_b +. 1e-9)
        | ss ->
          Alcotest.failf "expected summaries [a; b], got %d rows"
            (List.length ss));
  ]

(* ------------------------------------------------------------------ *)
(* Pipeline integration: the names the merge flow and STA emit          *)

let integration_cases =
  [
    tc "merge flow emits the documented spans" (fun () ->
        fresh ();
        let d = Pc.build () in
        let a, b = Pc.constraint_set6 d in
        let r = Merge_flow.run [ a; b ] in
        Obs.set_enabled false;
        check Alcotest.int "merged to one" 1 r.Merge_flow.n_merged;
        let names = span_names () in
        List.iter
          (fun n ->
            check Alcotest.bool n true (List.mem n names))
          [
            "merge.flow"; "merge.mergeability"; "merge.clique_sweep";
            "merge.group"; "merge.prelim"; "merge.refine"; "merge.equiv";
            "compare.pass1"; "compare.pass2"; "compare.pass3";
          ];
        check Alcotest.int "one clique" 1 (Metrics.get_counter "merge.cliques");
        check Alcotest.bool "pairs checked" true
          (Metrics.get_counter "merge.pairs_checked" >= 1);
        (* merge.flow must be the root enclosing everything else. *)
        let flow =
          List.find (fun s -> s.Obs.sp_name = "merge.flow") (Obs.spans ())
        in
        check Alcotest.int "flow at depth 0" 0 flow.Obs.sp_depth;
        check Alcotest.bool "runtime from the same clock" true
          (r.Merge_flow.runtime_s > 0.));
    tc "the equivalence verdict runs no second comparison" (fun () ->
        (* The verdict is read from refinement's final comparison; a
           compare pass under merge.equiv means it is computed again. *)
        fresh ();
        let d = Pc.build () in
        let a, b = Pc.constraint_set6 d in
        ignore (Merge_flow.run [ a; b ]);
        Obs.set_enabled false;
        let spans = Obs.spans () in
        let by_id = Hashtbl.create 64 in
        List.iter (fun s -> Hashtbl.replace by_id s.Obs.sp_id s) spans;
        let rec under_equiv (s : Obs.span) =
          match Hashtbl.find_opt by_id s.Obs.sp_parent with
          | None -> false
          | Some p -> p.Obs.sp_name = "merge.equiv" || under_equiv p
        in
        let passes =
          List.filter
            (fun s ->
              List.mem s.Obs.sp_name
                [ "compare.pass1"; "compare.pass2"; "compare.pass3" ])
            spans
        in
        check Alcotest.bool "refinement compared" true (passes <> []);
        check Alcotest.bool "merge.equiv recorded" true
          (List.mem "merge.equiv" (span_names ()));
        check
          (Alcotest.list Alcotest.string)
          "compare passes under merge.equiv" []
          (List.map
             (fun s -> s.Obs.sp_name)
             (List.filter under_equiv passes)));
    tc "audit, metrics and diagnostic JSON parse" (fun () ->
        (* The writers are hand-rolled; golden bytes elsewhere pin their
           shape, this pins that a real parser accepts what they emit. *)
        fresh ();
        let d = Pc.build () in
        let a, b = Pc.constraint_set6 d in
        let r = Merge_flow.run [ a; b ] in
        Obs.set_enabled false;
        let parse what s =
          match Json_read.parse_json s with
          | j -> j
          | exception Json_read.Parse_error e ->
            Alcotest.failf "%s is not JSON: %s" what e
        in
        let audit = parse "Audit.to_json" (Mm_core.Audit.to_json r) in
        List.iter
          (fun k ->
            check Alcotest.bool ("audit " ^ k) true
              (Json_read.member k audit <> None))
          Mm_core.Audit.mandatory_keys;
        let metrics = parse "Obs.metrics_json" (Obs.metrics_json ()) in
        (match Json_read.member "spans" metrics with
        | Some spans ->
          check Alcotest.bool "merge.flow span" true
            (Json_read.member "merge.flow" spans <> None)
        | None -> Alcotest.fail "metrics json has no spans");
        (* The merge's own diagnostics plus two more: one without a
           location, one carrying every character the writer must
           escape. *)
        let nasty = "q\"b\\n\n\001" in
        let diags =
          r.Merge_flow.diags
          @ [
              Mm_util.Diag.make Mm_util.Diag.Info ~code:"i" "no location";
              Mm_util.Diag.make
                ~loc:(Mm_util.Diag.loc ~line:3 ("f" ^ nasty))
                Mm_util.Diag.Warning ~code:"c" ("m" ^ nasty);
            ]
        in
        match parse "Diag.render_json" (Mm_util.Diag.render_json diags) with
        | Json_read.Arr items ->
          check Alcotest.int "one object per diagnostic" (List.length diags)
            (List.length items);
          check Alcotest.bool "escaped message round-trips" true
            (Json_read.member "message" (List.nth items (List.length items - 1))
            = Some (Json_read.Str ("m" ^ nasty)))
        | _ -> Alcotest.fail "diagnostics json is not an array");
    tc "sta emits propagate/check spans and counters" (fun () ->
        fresh ();
        let d = Pc.build () in
        let m = Pc.constraint_set1 d in
        let rep = Sta.analyze d m in
        Obs.set_enabled false;
        let names = span_names () in
        List.iter
          (fun n -> check Alcotest.bool n true (List.mem n names))
          [ "sta.analyze"; "sta.propagate"; "sta.check" ];
        check Alcotest.bool "tags counted" true
          (Metrics.get_counter "sta.tags_propagated" > 0);
        check Alcotest.bool "endpoints counted" true
          (Metrics.get_counter "sta.endpoints_checked" > 0);
        check Alcotest.bool "rep_runtime non-negative" true
          (rep.Sta.rep_runtime >= 0.));
    tc "parallel pipeline metric names are stable" (fun () ->
        (* merge.jobs (gauge) and pool.tasks_executed (counter) are part
           of the stable metric-name contract, like the span names. *)
        fresh ();
        let d = Pc.build () in
        let a, b = Pc.constraint_set6 d in
        ignore (Merge_flow.run ~jobs:2 [ a; b ]);
        Obs.set_enabled false;
        (match Metrics.get "merge.jobs" with
        | Some (Metrics.Gauge v) ->
          check (Alcotest.float 1e-9) "merge.jobs records the pool size" 2.0 v
        | _ -> Alcotest.fail "merge.jobs gauge missing");
        check Alcotest.bool "pool.tasks_executed counted" true
          (Metrics.get_counter "pool.tasks_executed" > 0));
    tc "pool telemetry names are stable at any jobs" (fun () ->
        (* pool.batches / pool.task_s / pool.queue_depth /
           pool.occupancy join the stable-name contract; the sequential
           and parallel paths must emit the identical set. *)
        let run jobs =
          Metrics.reset ();
          Obs.reset ();
          Obs.set_enabled true;
          Mm_util.Pool.with_pool ~jobs (fun p ->
              ignore (Mm_util.Pool.map p (fun x -> x * x) (List.init 8 Fun.id)));
          Obs.set_enabled false
        in
        List.iter
          (fun jobs ->
            run jobs;
            let where n = Printf.sprintf "%s at jobs=%d" n jobs in
            check Alcotest.int (where "pool.batches") 1
              (Metrics.get_counter "pool.batches");
            check Alcotest.int (where "pool.tasks_executed") 8
              (Metrics.get_counter "pool.tasks_executed");
            List.iter
              (fun n ->
                match Metrics.get n with
                | Some (Metrics.Histogram h) ->
                  check Alcotest.int (where n) 8 h.Metrics.h_count
                | _ -> Alcotest.failf "%s missing" (where n))
              [ "pool.task_s"; "pool.queue_depth" ];
            (match Metrics.get "pool.occupancy" with
            | Some (Metrics.Histogram h) ->
              check Alcotest.int (where "pool.occupancy") 1 h.Metrics.h_count;
              check Alcotest.bool "occupancy within [0,1]" true
                (h.Metrics.h_max <= 1.0 && h.Metrics.h_min >= 0.)
            | _ -> Alcotest.fail "pool.occupancy missing");
            (* The live-worker counter track is sampled up and down
               around every task. *)
            check Alcotest.bool (where "pool.active_workers track") true
              (List.exists
                 (fun (n, _, _) -> n = "pool.active_workers")
                 (Obs.samples ())))
          [ 1; 4 ];
        let report = Mm_util.Pool.utilization_report () in
        check Alcotest.bool "utilization report renders" true
          (contains ~needle:"occupancy" report
          && contains ~needle:"tasks" report);
        Metrics.reset ());
  ]

let () =
  Alcotest.run "mm_obs"
    [
      "span", span_cases;
      "metrics", metrics_cases;
      "gc", gc_cases;
      "exporter", exporter_cases;
      "integration", integration_cases;
    ]
