(* One run of the merge benchmark on one workload.

     mmbench.exe --workload NAME --seed N --seconds S --trace 0|1
                 [--spans FILE] [--mutate]

   The workload's generator turns the seed into netlist text and SDC
   texts; the program under test sees only that text. With --trace 0
   the run times whole merges (Netlist_io.of_string ->
   Merge_flow.run_sources -> Merge_flow.merged_files, Strict, with the
   equivalence check, as the CLI does) and prints the end-to-end
   metrics. With --trace 1 it replays the merge by calling each layer's
   public function inside the benchmark's own spans and prints the
   per-layer metrics.

   Every merge goes through a correctness gate: its bytes must equal
   the run's first jobs=1 output and every multi-mode group must be
   Equiv-equivalent. The last stdout line is one JSON object with the
   keys correct, attempted, failed and metrics; the exit code is 1 when
   any merge failed the gate. --mutate corrupts every gated output
   after the reference, so a smoke test can see the gate trip. *)

module Netlist_io = Mm_netlist.Netlist_io
module Mode = Mm_sdc.Mode
module Parser = Mm_sdc.Parser
module Resolve = Mm_sdc.Resolve
module Tgraph = Mm_timing.Tgraph
module Ctx_cache = Mm_timing.Ctx_cache
module Sta = Mm_timing.Sta
module Merge_flow = Mm_core.Merge_flow
module Mergeability = Mm_core.Mergeability
module Prelim = Mm_core.Prelim
module Refine = Mm_core.Refine
module Equiv = Mm_core.Equiv
module Metrics = Mm_util.Metrics
module Clock = Mm_util.Obs.Clock
module Presets = Mm_workload.Presets
module Gen_design = Mm_workload.Gen_design
module Gen_modes = Mm_workload.Gen_modes

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* many_modes: the mergeability sweep dominates (95 modes, mostly
   rejected pairs). one_family: every pair is accepted and runs the full
   mock merge. big_design: refine and equiv dominate, the sweep is
   trivial. tiny: the smoke test's input. *)
let presets =
  [
    "many_modes", Presets.design_a;
    "one_family", Presets.design_c;
    "big_design", Presets.design_f;
    "tiny", Presets.tiny;
  ]

type inputs = { netlist : string; sources : Merge_flow.source list }

(* The seed offsets the preset's netlist generator seed: each seed draws
   a fresh netlist of the preset's shape and size, constrained by the
   preset's mode recipe. The mode-suite seed stays the preset's own,
   because it alone moved big_design's refine work by up to 30% from
   seed to seed; a new netlist moves it by under 10%. *)
let make_inputs (p : Presets.preset) ~seed =
  let dp = p.Presets.design_params in
  let design, info =
    Gen_design.generate { dp with Gen_design.seed = dp.Gen_design.seed + seed }
  in
  let suite = p.Presets.suite in
  let sources =
    List.concat
      (List.mapi
         (fun family n ->
           List.init n (fun index ->
               {
                 Merge_flow.src_name = Printf.sprintf "m%d_%d" family index;
                 src_file = None;
                 src_text = Gen_modes.sdc_of_mode_spec info suite ~family ~index;
               }))
         suite.Gen_modes.families)
  in
  { netlist = Netlist_io.to_string design; sources }

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)

let now = Clock.now_ns
let since = Clock.elapsed_s

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The [p]-quantile of [xs], interpolating between order statistics
   (the "inclusive" method of Python's statistics.quantiles). *)
let quantile p = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = p *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* Per-call time of [f] in one batch of back-to-back calls lasting at
   least [min_batch_s]: a region of a few milliseconds is never timed on
   its own, so no single scheduler hiccup decides the number. The batch
   size is fixed by the first batch and reused by later ones. *)
let batch_timer ~min_batch_s f =
  let calls = ref 0 in
  fun () ->
    Gc.compact ();
    let t0 = now () in
    if !calls = 0 then begin
      let n = ref 0 in
      while !n = 0 || since t0 < min_batch_s do
        f ();
        incr n
      done;
      calls := !n
    end
    else
      for _ = 1 to !calls do
        f ()
      done;
    since t0 /. float_of_int !calls

(* Samples of [sample] taken back to back for about [seconds], at least
   one. *)
let samples_for seconds sample =
  let t0 = now () in
  let rec go acc =
    let acc = sample () :: acc in
    if since t0 < seconds then go acc else acc
  in
  go []

(* A whole merge is long enough to time alone; the heap is compacted
   first so every sample starts from the same GC state. *)
let timed f =
  Gc.compact ();
  let c0 = cpu_s () and t0 = now () in
  let v = f () in
  let wall = since t0 in
  v, wall, cpu_s () -. c0

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* Never more domains than cores. *)
let nproc = max 1 (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)

(* The reference host is a shared 2-vCPU VM. Its neighbours slow it by
   up to 2x, for seconds within a run and for minutes across runs, and
   never speed it up. A run therefore times this probe, which uses
   nothing from the repository (hashing, short-lived allocation and a
   sort, the mix a merge runs), beside its regions, and reports each
   region at the host's nominal speed: the lower quartile of the
   region's samples, scaled by the probe's nominal time over the lower
   quartile of the probe's samples in the same run. A change to the
   program moves the region and leaves the probe alone. *)
let probe () =
  let h = Hashtbl.create 4096 in
  for i = 0 to 49_999 do
    Hashtbl.replace h ((i * 7919) land 65535) (i, float_of_int i)
  done;
  let l = List.init 50_000 (fun i -> Hashtbl.find_opt h i) in
  ignore (Sys.opaque_identity (List.sort compare l))

(* The probe's lower-quartile per-call time on the reference host when
   its neighbours are quiet, rounded. *)
let probe_nominal_s = 0.04

(* [samples] at nominal host speed, given the same run's [probes]. *)
let at_nominal ~probes samples =
  quantile 0.25 samples *. probe_nominal_s /. quantile 0.25 probes

(* ------------------------------------------------------------------ *)
(* The program under test and its correctness gate                     *)

(* Set-up a user pays once per design: parse the netlist and warm the
   compiled arena. The one design the run merges goes through the
   arena cache; the timed samples use the uncached [Tgraph.compile], so
   the cache (keyed by physical identity, up to 8 designs) does not
   fill with throw-away copies. *)
let setup netlist =
  let design = Netlist_io.of_string netlist in
  ignore (Tgraph.skeleton design);
  let sample =
    batch_timer ~min_batch_s:0.1 (fun () ->
        ignore (Tgraph.compile (Netlist_io.of_string netlist)))
  in
  design, sample

let merge ~design ~jobs sources =
  let r =
    Merge_flow.run_sources ~policy:Merge_flow.Strict ~check_equivalence:true
      ~jobs ~design sources
  in
  r, Merge_flow.merged_files r

let attempted = ref 0
let failed = ref 0
let mutate = ref false

let failed_pct () =
  100. *. float_of_int !failed /. float_of_int (max 1 !attempted)

let fail label why =
  incr failed;
  Printf.eprintf "FAILED %s: %s\n%!" label why

(* The bytes the gate compares: with --mutate, the first merged file
   loses its first byte. *)
let observed files =
  match files with
  | (name, text) :: rest when !mutate ->
    (name, String.sub text 1 (max 0 (String.length text - 1))) :: rest
  | _ -> files

(* Gate one merge. [reference] is [None] for the run's first jobs=1
   merge, whose bytes become the reference for every later merge.
   Returns [None] when the merge raised. *)
let gated ~label ~reference f =
  incr attempted;
  match f () with
  | exception e ->
    fail label (Printexc.to_string e);
    None
  | (groups_ok, files) as v ->
    (match reference with
    | _ when not groups_ok -> fail label "a merged group is not Equiv-equivalent"
    | Some ref_files when observed files <> ref_files ->
      fail label "merged bytes differ from the first jobs=1 output"
    | _ -> ());
    Some v

let groups_equivalent (r : Merge_flow.result) =
  List.for_all
    (fun (g : Merge_flow.group) ->
      match g.Merge_flow.grp_members, g.Merge_flow.grp_equiv with
      | [ _ ], _ -> true
      | _, Some e -> e.Equiv.equivalent
      | _, None -> false)
    r.Merge_flow.groups

(* A gated library merge; the result rides along for its caller. *)
let gated_merge ~design ~sources ~label ~reference jobs =
  let result = ref None in
  let v =
    gated ~label ~reference (fun () ->
        let r, files = merge ~design ~jobs sources in
        result := Some r;
        groups_equivalent r, files)
  in
  Option.map (fun (_, files) -> Option.get !result, files) v

(* The run's reference merge. A failure here leaves nothing to compare
   against, so the run ends at once. *)
exception Abort

let reference_merge ~design ~sources =
  match gated_merge ~design ~sources ~label:"reference jobs=1" ~reference:None 1 with
  | Some (r, files) -> r, files
  | None -> raise Abort

let individual_modes ~design sources =
  List.map
    (fun (s : Merge_flow.source) ->
      (Resolve.mode_of_string ~file:s.Merge_flow.src_name design
         ~name:s.Merge_flow.src_name s.Merge_flow.src_text)
        .Resolve.mode)
    sources

(* ------------------------------------------------------------------ *)
(* End-to-end run (no tracing)                                         *)

(* The measuring loop: [seconds] from the start of set-up, at least
   three rounds. Each round times one jobs=1 and one jobs=N merge, in
   alternating order so drift during the run hits both alike, then about
   0.3 s each of set-up and STA batches, so every region is sampled
   across the whole run and not in one burst. A probe batch precedes
   each region. *)
let run_untraced ~inputs ~seconds =
  let t0 = now () in
  let design, setup_sample = setup inputs.netlist in
  let sources = inputs.sources in
  let ref_result, ref_files = reference_merge ~design ~sources in
  let go ~label jobs =
    gated_merge ~design ~sources ~label ~reference:(Some ref_files) jobs
  in
  let merged = Merge_flow.merged_modes ref_result in
  let conformity =
    Sta.conformity
      ~individual:(Sta.analyze_many design (individual_modes ~design sources))
      ~merged:(Sta.analyze_many design merged)
      ~tolerance_frac:0.01
  in
  let sta_sample =
    batch_timer ~min_batch_s:0.1 (fun () -> ignore (Sta.analyze_many design merged))
  in
  let probe_sample = batch_timer ~min_batch_s:0.1 probe in
  (* Discarded warm-up of the parallel path (first domain spawns). *)
  ignore (go ~label:"warm-up jobs=N" nproc);
  let j1 = ref [] and jn = ref [] and jn_cpu = ref [] in
  let setup_s = ref [] and sta_s = ref [] in
  let probes = ref [] in
  let probed () = probes := probe_sample () :: !probes in
  let sample_j1 () =
    probed ();
    let v, wall, _ = timed (fun () -> go ~label:"jobs=1" 1) in
    if v <> None then j1 := wall :: !j1
  in
  let sample_jn () =
    probed ();
    let v, wall, cpu = timed (fun () -> go ~label:"jobs=N" nproc) in
    if v <> None then begin
      jn := wall :: !jn;
      jn_cpu := cpu :: !jn_cpu
    end
  in
  (* A round starts only when it is expected to end in time. *)
  let rounds = ref 0 and round_s = ref 0. in
  while !rounds < 3 || since t0 +. !round_s < seconds do
    let r0 = now () in
    if !rounds mod 2 = 0 then (sample_j1 (); sample_jn ())
    else (sample_jn (); sample_j1 ());
    probed ();
    setup_s := samples_for 0.3 setup_sample @ !setup_s;
    probed ();
    sta_s := samples_for 0.3 sta_sample @ !sta_s;
    round_s := since r0;
    incr rounds
  done;
  let show l = String.concat " " (List.rev_map (Printf.sprintf "%.4g") l) in
  Printf.eprintf
    "%d rounds; jobs=1: %s; jobs=%d: %s; cpu: %s; setup: %s; sta: %s; probe: %s\n%!"
    !rounds (show !j1) nproc (show !jn) (show !jn_cpu) (show !setup_s)
    (show !sta_s) (show !probes);
  let scaled = at_nominal ~probes:!probes in
  [
    "merge_s", scaled !jn, "s";
    "merge_j1_s", scaled !j1, "s";
    "merge_cpu_s", scaled !jn_cpu, "s";
    "sta_s", scaled !sta_s, "s";
    "setup_s", scaled !setup_s, "s";
    "peak_rss_mb", peak_rss_mb (), "MB";
    "modes_out", float_of_int (List.length ref_result.Merge_flow.groups), "count";
    "conformity_pct", conformity, "%";
  ]

(* ------------------------------------------------------------------ *)
(* Spans (kept in memory, written when the run ends)                   *)

type span = {
  sp_id : int;
  sp_parent : int;  (** -1 for a root *)
  sp_name : string;
  sp_start_s : float;  (** seconds since the program started *)
  sp_dur_s : float;
  sp_alloc_w : float;  (** words allocated on this domain *)
}

let spans = ref []
let open_spans = ref []
let next_id = ref 0
let origin = now ()

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let with_span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let a0 = allocated_words () and t0 = now () in
  let close () =
    let dur = since t0 in
    open_spans := List.tl !open_spans;
    spans :=
      {
        sp_id = id;
        sp_parent = parent;
        sp_name = name;
        sp_start_s = Int64.to_float (Int64.sub t0 origin) /. 1e9;
        sp_dur_s = dur;
        sp_alloc_w = allocated_words () -. a0;
      }
      :: !spans
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

(* Self time and self allocation: a span minus its direct children.
   Spans are recorded from one domain, so children never overlap. *)
let self_totals () =
  let self = Hashtbl.create 16 in
  List.iter
    (fun s -> Hashtbl.replace self s.sp_id (s.sp_dur_s, s.sp_alloc_w))
    !spans;
  List.iter
    (fun s ->
      match Hashtbl.find_opt self s.sp_parent with
      | Some (d, a) ->
        Hashtbl.replace self s.sp_parent (d -. s.sp_dur_s, a -. s.sp_alloc_w)
      | None -> ())
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d, a = Hashtbl.find self s.sp_id in
      let d0, a0, n0 =
        Option.value (Hashtbl.find_opt by_name s.sp_name) ~default:(0., 0., 0)
      in
      Hashtbl.replace by_name s.sp_name (d0 +. d, a0 +. a, n0 + 1))
    !spans;
  fun name -> Option.value (Hashtbl.find_opt by_name name) ~default:(0., 0., 0)

let write_spans file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s  {\"id\": %d, \"parent\": %d, \"name\": %S, \"start_s\": %.9f, \
             \"dur_s\": %.9f, \"alloc_words\": %.0f}"
            (if i = 0 then "" else ",\n")
            s.sp_id s.sp_parent s.sp_name s.sp_start_s s.sp_dur_s s.sp_alloc_w)
        (List.rev !spans);
      output_string oc "\n]\n")

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

(* [Merge_flow]'s Strict pipeline, one public call per span: resolve
   every source, pre-warm the context cache handed to the sweep, the
   pairwise sweep, then per clique in order the preliminary merge and,
   for a multi-mode clique, refinement and the equivalence check.
   Returns the merged files and whether every group is equivalent. *)
let replay ~design sources =
  with_span "merge" @@ fun () ->
  let modes =
    with_span "sdc.resolve" (fun () -> individual_modes ~design sources)
  in
  let ctx_cache = Ctx_cache.create () in
  with_span "context.build" (fun () ->
      List.iter (fun m -> ignore (Ctx_cache.find ctx_cache m)) modes);
  let matrix =
    with_span "mergeability" (fun () -> Mergeability.analyze ~ctx_cache modes)
  in
  let groups =
    List.mapi
      (fun gi members ->
        let ctx_cache = Ctx_cache.fork ctx_cache in
        match members with
        | [ (single : Mode.t) ] ->
          ignore
            (with_span "prelim" (fun () ->
                 Prelim.merge ~ctx_cache ~name:single.Mode.mode_name [ single ]));
          single, None, None
        | _ ->
          let name = Printf.sprintf "merged_%d" gi in
          let prelim =
            with_span "prelim" (fun () -> Prelim.merge ~ctx_cache ~name members)
          in
          let refine =
            with_span "refine" (fun () ->
                Refine.run ~ctx_cache ~prelim ~individual:members ())
          in
          let equiv =
            with_span "equiv" (fun () ->
                Equiv.check ~ctx_cache ?merged_ctx:refine.Refine.refined_ctx
                  ~individual:members ~rename:(Prelim.rename_of prelim)
                  ~merged:refine.Refine.refined ())
          in
          refine.Refine.refined, Some refine, Some equiv)
      (Mergeability.clique_modes matrix modes)
  in
  let files =
    List.mapi
      (fun i (mode, _, _) -> Printf.sprintf "merged_%d.sdc" i, Mode.to_sdc mode)
      groups
  in
  let equivalent =
    List.for_all
      (function _, _, Some e -> e.Equiv.equivalent | _, _, None -> true)
      groups
  in
  matrix, groups, (equivalent, files)

let gc_counts () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words, s.Gc.minor_collections, s.Gc.major_collections

let run_traced ~inputs ~spans_file =
  let design, _ = setup inputs.netlist in
  let sources = inputs.sources in
  let sk = with_span "tgraph.compile" (fun () -> Tgraph.compile design) in
  let _, ref_files = reference_merge ~design ~sources in
  let go ~label jobs =
    gated_merge ~design ~sources ~label ~reference:(Some ref_files) jobs
  in
  (* Untraced baselines: three jobs=1 merges (with their GC deltas) and
     three jobs=N merges, interleaved. The traced replay is one sample,
     so it is set against their median. *)
  let j1 = ref [] and jn = ref [] and gc = ref (0., 0, 0) in
  for i = 1 to 3 do
    let sample_j1 () =
      Gc.compact ();
      let w0, mi0, ma0 = gc_counts () in
      let _, wall, _ = timed (fun () -> go ~label:"jobs=1" 1) in
      let w1, mi1, ma1 = gc_counts () in
      gc := w1 -. w0, mi1 - mi0, ma1 - ma0;
      j1 := wall :: !j1
    in
    let sample_jn () =
      let _, wall, _ = timed (fun () -> go ~label:"jobs=N" nproc) in
      jn := wall :: !jn
    in
    if i mod 2 = 1 then (sample_j1 (); sample_jn ()) else (sample_jn (); sample_j1 ())
  done;
  let merge_j1_s = quantile 0.5 !j1 and merge_s = quantile 0.5 !jn in
  (* The traced replay at jobs=1, gated like any merge. *)
  let c0 = Metrics.counters () in
  Gc.compact ();
  let replayed = ref None in
  ignore
    (gated ~label:"traced replay" ~reference:(Some ref_files) (fun () ->
         let matrix, groups, v = replay ~design sources in
         replayed := Some (matrix, groups);
         v));
  let c1 = Metrics.counters () in
  let delta name =
    let get c = Option.value (List.assoc_opt name c) ~default:0 in
    float_of_int (get c1 - get c0)
  in
  let matrix, groups =
    match !replayed with Some mg -> mg | None -> raise Abort
  in
  let merged = List.map (fun (m, _, _) -> m) groups in
  let tags0 = Metrics.get_counter "sta.tags_propagated" in
  let reports =
    with_span "sta.analyze" (fun () -> Sta.analyze_many design merged)
  in
  let tags = Metrics.get_counter "sta.tags_propagated" - tags0 in
  (* Pool telemetry from one jobs=N merge with a fresh registry. *)
  Metrics.reset ();
  ignore (with_span "merge.jobs_n" (fun () -> go ~label:"pool jobs=N" nproc));
  let hist name =
    match Metrics.get name with
    | Some (Metrics.Histogram h) -> Some h
    | _ -> None
  in
  let task_us_p50 =
    match hist "pool.task_s" with
    | Some h -> Metrics.percentile h 0.5 *. 1e6
    | None -> 0.
  in
  let idle_pct =
    match hist "pool.occupancy" with
    | Some h when h.Metrics.h_count > 0 ->
      (1. -. (h.Metrics.h_sum /. float_of_int h.Metrics.h_count)) *. 100.
    | _ -> 0.
  in
  let self = self_totals () in
  let secs name = let d, _, _ = self name in d in
  let mwords name = let _, a, _ = self name in a /. 1e6 in
  let calls name = let _, _, n = self name in float_of_int n in
  let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l in
  let refines = List.filter_map (fun (_, r, _) -> r) groups in
  let equivs = List.filter_map (fun (_, _, e) -> e) groups in
  let n = List.length sources in
  let traced_total =
    List.fold_left
      (fun acc s -> if s.sp_name = "merge" then acc +. s.sp_dur_s else acc)
      0. !spans
  in
  let gc_words, gc_minor, gc_major = !gc in
  Option.iter write_spans spans_file;
  Printf.eprintf "layer self time as a share of the untraced merge_j1_s (%.3f s):\n"
    merge_j1_s;
  List.iter
    (fun l ->
      Printf.eprintf "  %-14s %8.3f s  %5.1f%%\n" l (secs l)
        (100. *. secs l /. merge_j1_s))
    [ "sdc.resolve"; "context.build"; "mergeability"; "prelim"; "refine";
      "equiv" ];
  Printf.eprintf "  traced merge   %8.3f s\n%!" traced_total;
  [
    "sdc.resolve_s", secs "sdc.resolve", "s";
    "sdc.commands",
      sum (fun (s : Merge_flow.source) ->
          float_of_int (List.length (Parser.parse_string s.Merge_flow.src_text)))
        sources,
      "count";
    "tgraph.compile_s", secs "tgraph.compile", "s";
    "tgraph.pins", float_of_int sk.Tgraph.sk_n_pins, "count";
    "tgraph.arcs", float_of_int sk.Tgraph.sk_n_arcs, "count";
    "context.build_s", secs "context.build", "s";
    "context.builds", float_of_int n, "count";
    "mergeability.s", secs "mergeability", "s";
    "mergeability.alloc_mw", mwords "mergeability", "Mword";
    "mergeability.pairs", float_of_int (n * (n - 1) / 2), "count";
    "mergeability.edges",
      float_of_int (List.length (Mergeability.edges matrix)), "count";
    "mergeability.cliques",
      float_of_int (List.length matrix.Mergeability.cliques), "count";
    "prelim.s", secs "prelim", "s";
    "prelim.alloc_mw", mwords "prelim", "Mword";
    "prelim.calls", calls "prelim", "count";
    "refine.s", secs "refine", "s";
    "refine.alloc_mw", mwords "refine", "Mword";
    "refine.iterations",
      sum (fun r -> float_of_int r.Refine.iterations) refines, "count";
    "refine.added_exceptions",
      sum (fun r -> float_of_int (List.length r.Refine.added_exceptions)) refines,
      "count";
    "compare.endpoints_visited", delta "compare.endpoints_visited", "count";
    "compare.pairs_compared", delta "compare.pairs_compared", "count";
    "equiv.s", secs "equiv", "s";
    "equiv.alloc_mw", mwords "equiv", "Mword";
    "equiv.mismatches", sum (fun e -> float_of_int e.Equiv.mismatches) equivs,
      "count";
    "sta.analyze_s", secs "sta.analyze", "s";
    "sta.endpoints",
      sum (fun r -> float_of_int (List.length r.Sta.rep_slacks)) reports,
      "count";
    "sta.tags_propagated", float_of_int tags, "count";
    "pool.tasks", float_of_int (Metrics.get_counter "pool.tasks_executed"),
      "count";
    "pool.batches", float_of_int (Metrics.get_counter "pool.batches"), "count";
    "pool.task_us_p50", task_us_p50, "us";
    "pool.idle_pct", idle_pct, "%";
    "merge.parallel_eff", merge_j1_s /. (merge_s *. float_of_int nproc), "ratio";
    "govern.retries", float_of_int (Metrics.get_counter "govern.retries"),
      "count";
    "gc.minor_mw", gc_words /. 1e6, "Mword";
    "gc.minor_collections", float_of_int gc_minor, "count";
    "gc.major_collections", float_of_int gc_major, "count";
    "trace_overhead_pct", 100. *. (traced_total -. merge_j1_s) /. merge_j1_s, "%";
    "failed_pct", failed_pct (), "%";
  ]

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_result metrics =
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    (max 1 !attempted) !failed
    (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and spans_file = ref None in
  let usage =
    "mmbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans \
     FILE] [--mutate]"
  in
  Arg.parse
    [
      "--workload", Arg.Set_string workload,
      " many_modes | one_family | big_design | tiny";
      "--seed", Arg.Set_int seed, " generator seed offset";
      "--seconds", Arg.Set_float seconds, " timed merge loop length (untraced)";
      "--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer";
      "--spans", Arg.String (fun f -> spans_file := Some f),
      " write the traced run's spans to this JSON file";
      "--mutate", Arg.Set mutate, " corrupt gated outputs (gate self-test)";
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let preset =
    match List.assoc_opt !workload presets with
    | Some p -> p
    | None ->
      prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  let inputs = make_inputs preset ~seed:!seed in
  Gc.compact ();
  let metrics =
    try
      if !trace = 0 then run_untraced ~inputs ~seconds:!seconds
      else run_traced ~inputs ~spans_file:!spans_file
    with Abort -> []
  in
  Printf.eprintf "failed_pct %.2f (%d of %d merges failed the gate)\n%!"
    (failed_pct ()) !failed !attempted;
  print_result metrics;
  exit (if !failed = 0 then 0 else 1)
