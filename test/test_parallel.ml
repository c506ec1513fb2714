(* @parallel-stress: determinism of the task-graph pipeline.

   The merge flow promises that its result — groups, merged SDC text,
   diagnostics, quarantine and degradation lists, metric counters — is
   byte-identical for any --jobs count (the driver folds task outcomes
   in input order). This suite runs randomly generated workloads,
   including corrupted sources that exercise the quarantine and
   degradation paths, once at jobs=1 and once at jobs=4 and compares a
   full fingerprint of both results. Heavier than tier-1, so it lives
   on the @parallel-stress alias. *)

module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Diag = Mm_util.Diag
module Metrics = Mm_util.Metrics
module Merge_flow = Mm_core.Merge_flow
module Gen_design = Mm_workload.Gen_design
module Gen_modes = Mm_workload.Gen_modes

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Result fingerprint: everything the determinism contract covers.
   Span timings and runtime_s are explicitly excluded; metric counters
   are included (gauges like merge.jobs differ by construction). *)

let fingerprint_group (g : Merge_flow.group) =
  Printf.sprintf "group members=[%s] sdc=<<%s>> refine=%b equiv=%s"
    (String.concat "," g.Merge_flow.grp_members)
    (Mode.to_sdc g.Merge_flow.grp_mode)
    (g.Merge_flow.grp_refine <> None)
    (match g.Merge_flow.grp_equiv with
    | None -> "-"
    | Some e ->
      Printf.sprintf "eq=%b,mm=%d" e.Mm_core.Equiv.equivalent
        e.Mm_core.Equiv.mismatches)

let fingerprint_quarantine (q : Merge_flow.quarantined) =
  Printf.sprintf "quarantine %s@%s: %s" q.Merge_flow.q_name
    (Merge_flow.stage_to_string q.Merge_flow.q_stage)
    (String.concat " | " (List.map Diag.to_string q.Merge_flow.q_diags))

let counters () =
  List.filter_map
    (fun (i : Metrics.item) ->
      match i.Metrics.value with
      | Metrics.Counter c -> Some (Printf.sprintf "%s=%d" i.Metrics.name c)
      | Metrics.Gauge _ | Metrics.Histogram _ -> None)
    (Metrics.snapshot ())

let fingerprint (r : Merge_flow.result) =
  String.concat "\n"
    (Printf.sprintf "n=%d->%d" r.Merge_flow.n_individual r.Merge_flow.n_merged
     :: List.map fingerprint_group r.Merge_flow.groups
    @ List.map fingerprint_quarantine r.Merge_flow.quarantined
    @ List.map
        (fun names -> "degraded " ^ String.concat "," names)
        r.Merge_flow.degraded
    @ List.map Diag.to_string r.Merge_flow.diags
    @ counters ())

let run_once ~jobs ~policy ~design sources =
  Metrics.reset ();
  let r = Merge_flow.run_sources ~policy ~jobs ~design sources in
  fingerprint r

(* ------------------------------------------------------------------ *)
(* Random workloads                                                    *)

type workload = {
  wl_seed : int;
  wl_families : int list;
  wl_corrupt : bool;  (* break every third source (permissive only) *)
}

let build_workload wl =
  let params =
    {
      Gen_design.default_params with
      Gen_design.seed = wl.wl_seed;
      n_domains = 2;
      regs_per_domain = 12;
      stages = 2;
      combo_depth = 2;
    }
  in
  let design, info = Gen_design.generate params in
  let suite =
    {
      Gen_modes.sp_seed = wl.wl_seed + 1;
      families = wl.wl_families;
      base_period = 2.0;
      scan_family = false;
    }
  in
  let sources =
    List.concat
      (List.mapi
         (fun family n ->
           List.init n (fun index ->
               let text = Gen_modes.sdc_of_mode_spec info suite ~family ~index in
               let text =
                 (* An unterminated command: the robust parser reports
                    an error and the mode quarantines at Load. *)
                 if wl.wl_corrupt && (family + index) mod 3 = 0 then
                   text ^ "\ncreate_clock -period\n"
                 else text
               in
               {
                 Merge_flow.src_name = Printf.sprintf "m%d_%d" family index;
                 src_file = None;
                 src_text = text;
               }))
         wl.wl_families)
  in
  design, sources

let check_deterministic ~policy wl =
  let design, sources = build_workload wl in
  let a = run_once ~jobs:1 ~policy ~design sources in
  let b = run_once ~jobs:4 ~policy ~design sources in
  Metrics.reset ();
  check Alcotest.string
    (Printf.sprintf "seed=%d jobs=1 vs jobs=4" wl.wl_seed)
    a b

let workload_gen =
  QCheck2.Gen.(
    let* seed = 0 -- 10_000 in
    let* families = list_size (1 -- 3) (1 -- 3) in
    let* corrupt = bool in
    return { wl_seed = seed; wl_families = families; wl_corrupt = corrupt })

let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"strict merge is jobs-invariant" ~count:6
         workload_gen (fun wl ->
           check_deterministic ~policy:Merge_flow.Strict
             { wl with wl_corrupt = false };
           true));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"permissive merge with corrupted sources is jobs-invariant"
         ~count:6 workload_gen (fun wl ->
           check_deterministic ~policy:Merge_flow.Permissive wl;
           true));
  ]

(* Fixed regression points: the paper circuit end to end, and a
   degradation-heavy permissive workload. *)
let fixed_cases =
  [
    tc "paper circuit jobs-invariant" (fun () ->
        let d = Mm_workload.Paper_circuit.build () in
        let a, b = Mm_workload.Paper_circuit.constraint_set6 d in
        let src (m : Mode.t) name =
          { Merge_flow.src_name = name; src_file = None; src_text = Mode.to_sdc m }
        in
        let sources = [ src a "csA"; src b "csB" ] in
        let one = run_once ~jobs:1 ~policy:Merge_flow.Strict ~design:d sources in
        let four = run_once ~jobs:4 ~policy:Merge_flow.Strict ~design:d sources in
        Metrics.reset ();
        check Alcotest.string "fingerprints" one four);
    tc "quarantine order is jobs-invariant" (fun () ->
        let d = Mm_workload.Paper_circuit.build () in
        let bad name =
          { Merge_flow.src_name = name; src_file = None;
            src_text = "create_clock -period\n" }
        in
        let good name =
          let m = Mm_workload.Paper_circuit.constraint_set1 d in
          { Merge_flow.src_name = name; src_file = None;
            src_text = Mode.to_sdc m }
        in
        let sources = [ bad "q0"; good "g0"; bad "q1"; good "g1"; bad "q2" ] in
        let one =
          run_once ~jobs:1 ~policy:Merge_flow.Permissive ~design:d sources
        in
        let four =
          run_once ~jobs:4 ~policy:Merge_flow.Permissive ~design:d sources
        in
        Metrics.reset ();
        check Alcotest.string "fingerprints" one four;
        check Alcotest.bool "quarantines present" true
          (let l = String.split_on_char '\n' one in
           List.exists (fun s -> String.length s >= 10 && String.sub s 0 10 = "quarantine") l));
  ]

(* ------------------------------------------------------------------ *)
(* Two domains racing one layer store                                  *)

module Ctx_cache = Mm_timing.Ctx_cache
module Context = Mm_timing.Context
module Prelim = Mm_core.Prelim

(* Preset C's mock merges (every pair is accepted), each through its own
   fork of [cache]: the merged SDC, the merged context and the pair.
   [rev] walks the pairs in reverse, so two racing domains start at
   opposite ends and meet in the middle. *)
let mock_merges ?(rev = false) cache modes =
  let arr = Array.of_list modes in
  let n = Array.length arr in
  let pairs =
    List.concat_map
      (fun i -> List.init (n - i - 1) (fun k -> i, i + k + 1))
      (List.init n Fun.id)
  in
  List.map
    (fun (i, j) ->
      let ctx_cache = Ctx_cache.fork cache in
      let p =
        Prelim.merge ~max_refine_iters:3 ~ctx_cache ~name:"__mock"
          [ arr.(i); arr.(j) ]
      in
      let ctx =
        match p.Prelim.merged_ctx with
        | Some c -> c
        | None -> Ctx_cache.build ctx_cache p.Prelim.merged
      in
      (i, j), Mode.to_sdc p.Prelim.merged, ctx)
    (if rev then List.rev pairs else pairs)
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let racing_layer_store () =
  let _design, _info, modes =
    Mm_workload.Presets.build Mm_workload.Presets.design_c
  in
  let alone = Ctx_cache.create () in
  let reference = mock_merges alone modes in
  let shared = Ctx_cache.create () in
  let ready = Atomic.make 0 in
  let race rev () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do Domain.cpu_relax () done;
    mock_merges ~rev shared modes
  in
  let other = Domain.spawn (race true) in
  let mine = race false () in
  let theirs = Domain.join other in
  let sdcs = List.map (fun (pair, sdc, _) -> pair, sdc) in
  check Alcotest.(list (pair (pair int int) string)) "merged SDC as alone"
    (sdcs reference) (sdcs mine);
  check Alcotest.(list (pair (pair int int) string)) "the other domain too"
    (sdcs reference) (sdcs theirs);
  check Alcotest.(pair int int) "the layers built alone"
    (Ctx_cache.layers alone) (Ctx_cache.layers shared);
  List.iter2
    (fun ((i, j), _, (a : Context.t)) (_, _, (b : Context.t)) ->
      if not (a.Context.consts == b.Context.consts
              && a.Context.clocks == b.Context.clocks)
      then Alcotest.failf "pair %d+%d: the domains hold different layers" i j;
      Option.iter
        (Alcotest.failf "pair %d+%d: %s" i j)
        (Layers_equal.mismatch a
           (Context.create a.Context.design a.Context.mode)))
    mine theirs

let () =
  Alcotest.run "mm_parallel"
    [
      "determinism", fixed_cases @ props;
      ( "layer_store",
        [ tc "two domains race one layer store" racing_layer_store ] );
    ]
