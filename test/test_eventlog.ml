(* @eventlog: the event journal's in-process contracts.

   Four layers:

   - The journal ring in Obs: bounded capacity, gap-free sequence
     numbers, newest-retention under wraparound (unit tests plus a
     QCheck property over random log counts past the capacity), and
     the schema-versioned NDJSON export.
   - Progress: tracker accumulation and ETA presence, the open stage
     and finished-stage count read from the journal, pool.tasks ticks
     per settled task, the state after a merge, and the shared
     sta.pins tracker.
   - Metrics: empty and single-sample histogram percentiles, in
     {!Metrics.percentile} and the metrics JSON export.
   - The DESIGN.md §15 event-kind table, checked bidirectionally
     against a real merge run (the same contract style as the §9
     taxonomy suite). *)

module Progress = Mm_util.Progress
module Metrics = Mm_util.Metrics
module Obs = Mm_util.Obs
module Govern = Mm_util.Govern
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
(* Journal ring                                                        *)

(* The ring's fixed capacity: the journal keeps the newest 4096 events. *)
let ring_cap = 4096

let test_ring_basics () =
  Obs.reset ();
  check Alcotest.int "empty total" 0 (Obs.events_total ());
  check Alcotest.int "empty dropped" 0 (Obs.events_dropped ());
  Obs.event "a.one";
  Obs.event "a.two" ~attrs:[ ("k", "v") ];
  Obs.event "a.one";
  check Alcotest.int "total counts every log" 3 (Obs.events_total ());
  let evs = Obs.events () in
  check Alcotest.(list string) "oldest first"
    [ "a.one"; "a.two"; "a.one" ]
    (List.map (fun e -> e.Obs.ev_kind) evs);
  check
    Alcotest.(list int)
    "gap-free seq" [ 0; 1; 2 ]
    (List.map (fun e -> e.Obs.ev_seq) evs);
  check
    Alcotest.(list (pair string string))
    "attrs retained"
    [ ("k", "v") ]
    (List.nth evs 1).Obs.ev_attrs;
  Obs.reset ()

let test_ring_wraparound () =
  Obs.reset ();
  let n = ring_cap + 6 in
  for i = 0 to n - 1 do
    Obs.event (Printf.sprintf "k.%d" (i mod 2))
  done;
  check Alcotest.int "total survives drops" n (Obs.events_total ());
  check Alcotest.int "dropped = total - retained" 6 (Obs.events_dropped ());
  let evs = Obs.events () in
  check Alcotest.int "ring holds capacity" ring_cap (List.length evs);
  check
    Alcotest.(list int)
    "newest retained, in order"
    (List.init ring_cap (fun i -> 6 + i))
    (List.map (fun e -> e.Obs.ev_seq) evs);
  check
    Alcotest.(list string)
    "kinds follow their events" [ "k.0"; "k.1" ]
    (List.map (fun e -> e.Obs.ev_kind)
       (List.filteri (fun i _ -> i >= ring_cap - 2) evs));
  Obs.reset ()

let ring_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"ring never exceeds capacity and retains the newest events"
       ~count:200
       QCheck2.Gen.(0 -- (3 * ring_cap))
       (fun n ->
         Obs.reset ();
         for i = 0 to n - 1 do
           Obs.event (Printf.sprintf "p.%d" (i mod 3))
         done;
         let evs = Obs.events () in
         let len = List.length evs in
         let expect_len = min ring_cap n in
         let seqs = List.map (fun e -> e.Obs.ev_seq) evs in
         let expect_seqs = List.init expect_len (fun i -> n - expect_len + i) in
         let ok =
           len = expect_len && seqs = expect_seqs
           && Obs.events_total () = n
           && Obs.events_dropped () = n - expect_len
         in
         Obs.reset ();
         ok))

let test_ndjson () =
  Obs.reset ();
  Obs.event "x.start" ~attrs:[ ("mode", "m\"1"); ("n", "2") ];
  Obs.event "x.finish";
  let nd = Obs.events_ndjson () in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' nd)
  in
  check Alcotest.int "header + one line per event" 3 (List.length lines);
  (match Json_read.parse_json (List.hd lines) with
  | j ->
    check Alcotest.(option string) "schema header"
      (Some Obs.schema_version)
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
  Obs.reset ()

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

let stages = Alcotest.(pair (option string) int)

let test_progress_stages () =
  Progress.reset ();
  Obs.reset ();
  (* An older run's open stage is forgotten at the newest run.start. *)
  List.iter
    (fun (kind, stage) -> Obs.event kind ~attrs:[ "stage", stage ])
    [ "run.start", ""; "stage.start", "old";
      "run.start", ""; "stage.start", "load"; "stage.finish", "load";
      "stage.start", "mergeability" ];
  (* The open stage, and stages_done counts this run's finishes. *)
  check stages "open stage and finished count" (Some "mergeability", 1)
    (Progress.stages ());
  (* A tracker that has not run reads done = total = 0, which is how
     the bar leaves it out. *)
  Progress.add_total Progress.pool_tasks 5;
  let v = Progress.view Progress.sta_pins in
  check Alcotest.(pair int int) "idle tracker reads 0/0" (0, 0)
    (v.Progress.tr_done, v.Progress.tr_total);
  Obs.reset ();
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

(* After a merge, the journal says every stage finished. *)
let test_progress_after_merge () =
  Progress.reset ();
  let _design, _info, modes = Presets.build Presets.tiny in
  ignore (Merge_flow.run ~jobs:1 modes);
  check stages "no open stage, three stages done" (None, 3)
    (Progress.stages ());
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
(* Metrics percentiles                                                 *)

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
  let j = Json_read.parse_json (Obs.metrics_json ()) in
  (match Option.bind (Json_read.member "metrics" j) (Json_read.member "one.sample") with
  | Some h ->
    check Alcotest.bool "p99 of one sample" true
      (Json_read.member "p99" h = Some (Json_read.Num 1.5))
  | None -> Alcotest.fail "observed metric missing from JSON");
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
    (Obs.reset ();
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
     if Obs.events_dropped () > 0 then
       Alcotest.fail "the reference run overflowed the event ring";
     let kinds =
       SS.of_list (List.map (fun e -> e.Obs.ev_kind) (Obs.events ()))
     in
     Obs.reset ();
     kinds)

let test_taxonomy_table_parses () =
  let t = Lazy.force kind_table in
  check Alcotest.bool "event-kind table found" true (List.length t >= 11);
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
          tc "stages read from the journal" test_progress_stages;
          tc "pool.tasks ticks once per settled task" test_pool_tasks_tracker;
          tc "after a merge, every stage has finished"
            test_progress_after_merge;
          tc "an ended STA sweep leaves sta.pins open" test_sta_pins_shared;
        ] );
      ( "histograms",
        [ tc "empty and single-sample percentiles" test_percentile_degenerate ]
      );
      ( "taxonomy",
        [
          tc "§15 event-kind table parses out of DESIGN.md"
            test_taxonomy_table_parses;
          tc "every `always` kind emitted, every emitted kind documented"
            test_taxonomy_bidirectional;
        ] );
    ]
