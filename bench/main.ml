(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation, plus the ablations and the design-size sweep.

     dune exec bench/main.exe            # tables + ablations
     dune exec bench/main.exe -- tables  # reproduction tables only
     dune exec bench/main.exe -- presets DIR  # CLI inputs for presets A-F

   An unknown target name prints the list of targets ([targets] below).

   Wall-clock performance of the merge itself is measured by
   perfbench/, not here.

   Absolute numbers differ from the paper (its designs are 100x larger
   and ran on proprietary multi-threaded tooling); the shapes — merge
   factors, STA runtime reduction, conformity — are the reproduction
   target. EXPERIMENTS.md records paper-vs-measured. *)

module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Context = Mm_timing.Context
module Sta = Mm_timing.Sta
module Tab = Mm_util.Tab
module Stat = Mm_util.Stat
module Json = Mm_util.Json
module Obs = Mm_util.Obs
module Metrics = Mm_util.Metrics
module Pc = Mm_workload.Paper_circuit
module Presets = Mm_workload.Presets
module Prelim = Mm_core.Prelim
module Refine = Mm_core.Refine
module Compare = Mm_core.Compare
module Merge_flow = Mm_core.Merge_flow
module Report = Mm_core.Report

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* One shared timer for every phase measurement: the Obs monotonic
   clock, i.e. the same clock the pipeline spans run on. *)
let time f =
  Gc.compact ();
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  r, Obs.Clock.elapsed_s t0

(* ------------------------------------------------------------------ *)
(* Table 1 and Figure 1: the example circuit and its relationships     *)

let table1 () =
  section "Table 1: timing relationships (Constraint Set 1, Figure 1 circuit)";
  let d = Pc.build () in
  let mode = Pc.constraint_set1 d in
  let ctx = Context.create d mode in
  let rels = Mm_core.Relation_prop.endpoint_relations ctx in
  Tab.print (Report.relations_table d rels)

(* ------------------------------------------------------------------ *)
(* Tables 2-4: the 3-pass comparison on Constraint Set 6               *)

let tables234 () =
  let d = Pc.build () in
  let a, b = Pc.constraint_set6 d in
  let prelim = Prelim.merge ~name:"A+B" [ a; b ] in
  let sides =
    List.map
      (fun (m : Mode.t) ->
        {
          Compare.ctx = Context.create d m;
          rename = Prelim.rename_of prelim m.Mode.mode_name;
        })
      [ a; b ]
  in
  let merged_ctx = Context.create d prelim.Prelim.merged in
  let cmp = Compare.run ~individual:sides ~merged:merged_ctx () in
  section "Table 2: pass-1 timing relationship comparison (Constraint Set 6)";
  Tab.print (Report.pass1_table d cmp.Compare.pass1);
  section "Table 3: pass-2 timing relationship comparison";
  Tab.print (Report.pass2_table d cmp.Compare.pass2);
  section "Table 4: pass-3 timing relationship comparison";
  Tab.print (Report.pass3_table d cmp.Compare.pass3);
  Printf.printf "\nConstraints added to the merged mode (paper's CSTR1-3):\n%s\n"
    (Report.fixes_text d cmp.Compare.fixes)

(* ------------------------------------------------------------------ *)
(* Figure 2: the mergeability graph                                    *)

let figure2 () =
  section "Figure 2: mergeability graph and greedy cliques";
  (* A 9-mode suite in 3 families, mirroring the figure's M1-M3. *)
  let params =
    {
      Mm_workload.Gen_design.default_params with
      Mm_workload.Gen_design.seed = 33;
      regs_per_domain = 32;
      stages = 3;
      combo_depth = 2;
    }
  in
  let design, info = Mm_workload.Gen_design.generate params in
  let suite =
    {
      Mm_workload.Gen_modes.sp_seed = 34;
      families = [ 4; 3; 2 ];
      base_period = 2.0;
      scan_family = true;
    }
  in
  let modes = Mm_workload.Gen_modes.generate design info suite in
  let merg = Mm_core.Mergeability.analyze modes in
  print_string (Report.mergeability_text merg)

(* ------------------------------------------------------------------ *)
(* Tables 5 and 6: designs A-F                                         *)

type design_run = {
  dr_name : string;
  dr_paper : Presets.preset option;  (* paper columns, when a preset *)
  dr_cells : int;
  dr_flow : Merge_flow.result;
  dr_sta_ind : float;
  dr_sta_mrg : float;
  dr_conformity : float;
  dr_all_equivalent : bool;
}

let run_modes ~name ?paper design modes =
  let flow = Merge_flow.run modes in
  let ind_reports, sta_ind =
    time (fun () -> List.map (fun m -> Sta.analyze design m) modes)
  in
  let mrg_reports, sta_mrg =
    time (fun () ->
        List.map (fun m -> Sta.analyze design m) (Merge_flow.merged_modes flow))
  in
  let conformity =
    Sta.conformity ~individual:ind_reports ~merged:mrg_reports
      ~tolerance_frac:0.01
  in
  let all_equivalent =
    List.for_all
      (fun (g : Merge_flow.group) ->
        match g.Merge_flow.grp_equiv with
        | Some e -> e.Mm_core.Equiv.equivalent
        | None -> true)
      flow.Merge_flow.groups
  in
  {
    dr_name = name;
    dr_paper = paper;
    dr_cells = Design.n_insts design;
    dr_flow = flow;
    dr_sta_ind = sta_ind;
    dr_sta_mrg = sta_mrg;
    dr_conformity = conformity;
    dr_all_equivalent = all_equivalent;
  }

let run_design (p : Presets.preset) =
  let design, _info, modes = Presets.build p in
  run_modes ~name:p.Presets.pr_name ~paper:p design modes

(* ------------------------------------------------------------------ *)
(* BENCH_<run>.json: the committed bench trajectory. Table 5/6 numbers *)
(* per design plus the full observability snapshot (metric counters    *)
(* and per-stage span durations) of the run that produced them.        *)

let bench_json runs =
  let num = Json.num and int = string_of_int in
  let row5 r =
    Json.obj
      [ "design", Json.str r.dr_name;
        "cells", int r.dr_cells;
        "n_individual", int r.dr_flow.Merge_flow.n_individual;
        "n_merged", int r.dr_flow.Merge_flow.n_merged;
        "reduction_percent", num r.dr_flow.Merge_flow.reduction_percent;
        "merge_runtime_s", num r.dr_flow.Merge_flow.runtime_s ]
  in
  let row6 r =
    Json.obj
      [ "design", Json.str r.dr_name;
        "sta_individual_s", num r.dr_sta_ind;
        "sta_merged_s", num r.dr_sta_mrg;
        "sta_reduction_percent",
        num (Stat.reduction_percent r.dr_sta_ind r.dr_sta_mrg);
        "conformity", num r.dr_conformity;
        "equivalent", string_of_bool r.dr_all_equivalent;
        "quarantined", int (List.length r.dr_flow.Merge_flow.quarantined);
        "degraded_cliques", int (List.length r.dr_flow.Merge_flow.degraded) ]
  in
  let pool_items =
    List.filter
      (fun (i : Metrics.item) ->
        String.length i.Metrics.name >= 5
        && String.sub i.Metrics.name 0 5 = "pool.")
      (Metrics.snapshot ())
  in
  Json.obj
    [ "schema", Json.str "modemerge-bench/1";
      "run", Json.str "paper_tables";
      "table5", Json.arr (List.map row5 runs);
      "table6", Json.arr (List.map row6 runs);
      "summary",
      Json.obj
        [ "avg_reduction_percent",
          num (Stat.mean (List.map (fun r -> r.dr_flow.Merge_flow.reduction_percent) runs));
          "avg_sta_reduction_percent",
          num (Stat.mean (List.map (fun r -> Stat.reduction_percent r.dr_sta_ind r.dr_sta_mrg) runs));
          "avg_conformity", num (Stat.mean (List.map (fun r -> r.dr_conformity) runs)) ];
      (* Resource sections: whole-run GC totals and the pool.* metric
         slice. *)
      "gc", Json.obj (List.map (fun (k, v) -> k, num v) (Obs.gc_totals ()));
      "pool", Obs.metrics_items_json pool_items;
      (* {"metrics":...,"spans":...}, embedded verbatim. *)
      "observability", Obs.metrics_json () ]

let bench_file = "BENCH_paper_tables.json"

let write_bench_json runs =
  let oc = open_out bench_file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (bench_json runs);
      output_char oc '\n');
  Printf.printf "\nwrote %s\n" bench_file

(* Mandatory keys the bench trajectory (and CI's @bench-smoke) relies
   on: a run that stops emitting one of these is a regression even if
   it exits 0. *)
let mandatory_keys =
  [
    {|"table5"|}; {|"table6"|}; {|"merge_runtime_s"|}; {|"conformity"|};
    {|"merge.cliques"|}; {|"sta.tags_propagated"|}; {|"spans"|};
    {|"sta.analyze"|};
    {|"gc":{|}; {|"gc.minor_words"|}; {|"pool":{|}; {|"pool.tasks_executed"|};
    {|"pool.occupancy"|};
  ]

let contains ~needle hay =
  let nh = String.length needle and lh = String.length hay in
  let rec go i = i + nh <= lh && (String.sub hay i nh = needle || go (i + 1)) in
  go 0

let validate_bench_json () =
  let ic = open_in bench_file in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let missing = List.filter (fun k -> not (contains ~needle:k s)) mandatory_keys in
  if missing <> [] then begin
    Printf.eprintf "%s is missing mandatory keys: %s\n" bench_file
      (String.concat ", " missing);
    exit 1
  end;
  Printf.printf "%s: all %d mandatory keys present\n" bench_file
    (List.length mandatory_keys)

let tables56 () =
  (* Tables 5/6 are the committed bench trajectory, so they run with
     tracing on and export the observability snapshot alongside. *)
  Obs.set_enabled true;
  Obs.reset ();
  Metrics.reset ();
  let runs = List.map run_design Presets.all in
  let paper r = Option.get r.dr_paper in
  section "Table 5: mode reduction and merging runtime (designs A-F)";
  Printf.printf
    "(sizes are the paper's designs scaled ~1:100; paper columns shown for \
     comparison)\n";
  let t5 =
    Tab.create
      ~aligns:
        [ Tab.Left; Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right;
          Tab.Right; Tab.Right; Tab.Right ]
      [
        "Design"; "Cells"; "# Individual"; "# Merged"; "% Reduction";
        "Merge Runtime (s)"; "Paper # Ind"; "Paper # Mrg"; "Paper % Red";
      ]
  in
  List.iter
    (fun r ->
      let p = paper r in
      Tab.add_row t5
        [
          r.dr_name;
          string_of_int r.dr_cells;
          string_of_int r.dr_flow.Merge_flow.n_individual;
          string_of_int r.dr_flow.Merge_flow.n_merged;
          Stat.fmt_f1 r.dr_flow.Merge_flow.reduction_percent;
          Stat.fmt_time_s r.dr_flow.Merge_flow.runtime_s;
          string_of_int p.Presets.paper_modes;
          string_of_int p.Presets.paper_merged;
          Stat.fmt_f1 p.Presets.paper_reduction;
        ])
    runs;
  let avg get = Stat.mean (List.map get runs) in
  Tab.add_sep t5;
  Tab.add_row t5
    [
      "Average"; ""; ""; "";
      Stat.fmt_f1 (avg (fun r -> r.dr_flow.Merge_flow.reduction_percent));
      ""; ""; "";
      Stat.fmt_f1 (avg (fun r -> (paper r).Presets.paper_reduction));
    ];
  Tab.print t5;

  section "Table 6: overall STA runtime reduction and QoR of merged modes";
  let t6 =
    Tab.create
      ~aligns:
        [ Tab.Left; Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right;
          Tab.Right; Tab.Right ]
      [
        "Design"; "STA Individual (s)"; "STA Merged (s)"; "% Reduction";
        "Conformity"; "Equivalent"; "Paper % Red"; "Paper Conf";
      ]
  in
  List.iter
    (fun r ->
      let p = paper r in
      Tab.add_row t6
        [
          r.dr_name;
          Stat.fmt_time_s r.dr_sta_ind;
          Stat.fmt_time_s r.dr_sta_mrg;
          Stat.fmt_f1 (Stat.reduction_percent r.dr_sta_ind r.dr_sta_mrg);
          Stat.fmt_f2 r.dr_conformity;
          string_of_bool r.dr_all_equivalent;
          Stat.fmt_f1 p.Presets.paper_sta_reduction;
          Stat.fmt_f2 p.Presets.paper_conformity;
        ])
    runs;
  Tab.add_sep t6;
  Tab.add_row t6
    [
      "Average"; ""; "";
      Stat.fmt_f1
        (Stat.mean
           (List.map
              (fun r -> Stat.reduction_percent r.dr_sta_ind r.dr_sta_mrg)
              runs));
      Stat.fmt_f2 (Stat.mean (List.map (fun r -> r.dr_conformity) runs));
      "";
      Stat.fmt_f1
        (Stat.mean (List.map (fun r -> (paper r).Presets.paper_sta_reduction) runs));
      Stat.fmt_f2
        (Stat.mean (List.map (fun r -> (paper r).Presets.paper_conformity) runs));
    ];
  Tab.print t6;
  write_bench_json runs

(* ------------------------------------------------------------------ *)
(* Smoke run for @bench-smoke: the paper circuit's two-mode merge       *)
(* (Constraint Set 6), tracing on, BENCH json emitted and validated.    *)
(* Fast enough for every CI run, unlike the full A-F preset sweep.      *)

let smoke () =
  section "Bench smoke: paper circuit, Constraint Set 6, observability on";
  Obs.set_enabled true;
  Obs.reset ();
  Metrics.reset ();
  let d = Pc.build () in
  let a, b = Pc.constraint_set6 d in
  let r = run_modes ~name:"paper_circuit" d [ a; b ] in
  Printf.printf "  merged %d -> %d mode(s), %.1f%% reduction, conformity %.2f\n"
    r.dr_flow.Merge_flow.n_individual r.dr_flow.Merge_flow.n_merged
    r.dr_flow.Merge_flow.reduction_percent r.dr_conformity;
  write_bench_json [ r ];
  validate_bench_json ()

(* ------------------------------------------------------------------ *)
(* Ablations: quantify the design choices DESIGN.md calls out          *)

let ablation_refinement () =
  section "Ablation 1: refinement off (paper section 3.2 disabled)";
  Printf.printf
    "Constraint Set 6 merged with preliminary merging only, then with \
     refinement:\n";
  let d = Pc.build () in
  let a, b = Pc.constraint_set6 d in
  let prelim = Prelim.merge ~name:"A+B" [ a; b ] in
  let check label merged =
    let e =
      Mm_core.Equiv.check ~individual:[ a; b ]
        ~rename:(Prelim.rename_of prelim) ~merged ()
    in
    Printf.printf
      "  %-22s equivalent=%-5b mismatch buckets=%d remaining fixes=%d\n" label
      e.Mm_core.Equiv.equivalent e.Mm_core.Equiv.mismatches
      e.Mm_core.Equiv.remaining_fixes
  in
  check "preliminary only:" prelim.Prelim.merged;
  let refined = Refine.run ~prelim ~individual:[ a; b ] () in
  check "with refinement:" refined.Refine.refined

let ablation_uniquification () =
  section "Ablation 2: exception uniquification off (paper section 3.1.10)";
  let d = Pc.build () in
  let a, b = Pc.constraint_set4 d in
  let with_u = Prelim.merge ~name:"M" [ a; b ] in
  let without_u = Prelim.merge ~uniquify:false ~name:"M" [ a; b ] in
  Printf.printf
    "  with uniquification:    %d exception(s) kept, %d dropped, %d conflicts\n"
    (List.length with_u.Prelim.merged.Mode.exceptions)
    (List.length with_u.Prelim.dropped_exceptions)
    (List.length with_u.Prelim.conflicts);
  Printf.printf
    "  without uniquification: %d exception(s) kept, %d dropped, %d conflicts\n"
    (List.length without_u.Prelim.merged.Mode.exceptions)
    (List.length without_u.Prelim.dropped_exceptions)
    (List.length without_u.Prelim.conflicts);
  Printf.printf
    "  (the dropped MCP becomes a merge conflict: without 3.1.10 these two \
     modes cannot merge at all)\n"

let ablation_tolerance () =
  section "Ablation 3: tolerance sweep over the mergeability decision";
  (* Eight modes whose set_load values form a 1%%-per-step gradient:
     the tolerance limit directly controls the clique structure. *)
  let d = Pc.build () in
  let modes =
    List.init 8 (fun i ->
        let src =
          Printf.sprintf
            "create_clock -name c -period 10 [get_ports clk1]\nset_load %g [get_ports out1]"
            (0.0100 *. (1.01 ** float_of_int i))
        in
        (Mm_sdc.Resolve.mode_of_string d ~name:(Printf.sprintf "m%d" i) src)
          .Mm_sdc.Resolve.mode)
  in
  let t =
    Tab.create
      ~aligns:[ Tab.Right; Tab.Right; Tab.Right ]
      [ "Tolerance (rel)"; "Merged modes (greedy)"; "Merged modes (exact)" ]
  in
  List.iter
    (fun rel ->
      let tolerance = Mm_util.Toler.make ~rel () in
      let m = Mm_core.Mergeability.analyze ~tolerance modes in
      let exact =
        Mm_core.Mergeability.exact_cliques m.Mm_core.Mergeability.adjacency
      in
      Tab.add_row t
        [
          Printf.sprintf "%.3f" rel;
          string_of_int (List.length m.Mm_core.Mergeability.cliques);
          string_of_int (List.length exact);
        ])
    [ 0.0; 0.011; 0.022; 0.045; 0.08 ];
  Tab.print t;
  Printf.printf
    "(wider tolerance admits more value drift into one superset mode)\n"

let ablation_cliques () =
  section "Ablation 4: greedy vs exact clique cover on random graphs";
  let rng = Mm_util.Prng.create 4242 in
  let worse = ref 0 and total = ref 0 and gsum = ref 0 and esum = ref 0 in
  for _ = 1 to 200 do
    let n = 10 in
    let adj = Array.make_matrix n n false in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let e = Mm_util.Prng.int rng 100 < 55 in
        adj.(i).(j) <- e;
        adj.(j).(i) <- e
      done
    done;
    let g = List.length (Mm_core.Mergeability.greedy_cliques adj) in
    let e = List.length (Mm_core.Mergeability.exact_cliques adj) in
    incr total;
    gsum := !gsum + g;
    esum := !esum + e;
    if g > e then incr worse
  done;
  Printf.printf
    "  200 random 10-mode graphs (55%% edge density):\n\
    \  greedy avg cover %.2f, exact avg cover %.2f; greedy suboptimal on \
     %d/%d graphs\n"
    (float_of_int !gsum /. float_of_int !total)
    (float_of_int !esum /. float_of_int !total)
    !worse !total;
  Printf.printf
    "  (the paper's greedy choice costs little at realistic mode counts)\n"

let ablations () =
  ablation_refinement ();
  ablation_uniquification ();
  ablation_tolerance ();
  ablation_cliques ()

(* ------------------------------------------------------------------ *)
(* Scaling sweep: merge + STA cost vs design size (not a paper table;  *)
(* quantifies how the implementation scales toward the paper's sizes)  *)

let scale_sweep () =
  section "Scaling sweep: 3-mode merge and STA vs design size";
  let t =
    Tab.create
      ~aligns:
        [ Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right;
          Tab.Right ]
      [
        "Cells"; "Pins"; "Set-up (s)"; "Merge (s)"; "Pass 1 (s)";
        "STA individual (s)"; "STA merged (s)";
      ]
  in
  Obs.set_enabled true;
  List.iter
    (fun regs ->
      let params =
        {
          Mm_workload.Gen_design.default_params with
          Mm_workload.Gen_design.seed = 900 + regs;
          n_domains = 4;
          regs_per_domain = regs;
          stages = 5;
          combo_depth = 5;
          n_config_pins = 8;
          n_clock_muxes = 2;
        }
      in
      let design, info = Mm_workload.Gen_design.generate params in
      let suite =
        {
          Mm_workload.Gen_modes.sp_seed = 901;
          families = [ 3 ];
          base_period = 1.0;
          scan_family = false;
        }
      in
      let modes = Mm_workload.Gen_modes.generate design info suite in
      (* What a user pays before merging: read the netlist text and
         compile its arena. *)
      let text = Mm_netlist.Netlist_io.to_string design in
      let _, t_setup =
        time (fun () ->
            Mm_timing.Tgraph.compile (Mm_netlist.Netlist_io.of_string text))
      in
      Obs.reset ();
      let flow, t_merge = time (fun () -> Merge_flow.run modes) in
      let t_pass1 =
        List.fold_left
          (fun acc (name, _, total_s, _) ->
            if name = "compare.pass1" then acc +. total_s else acc)
          0. (Obs.span_summaries ())
      in
      let _, t_ind =
        time (fun () -> List.map (fun m -> Sta.analyze design m) modes)
      in
      let _, t_mrg =
        time (fun () ->
            List.map (fun m -> Sta.analyze design m) (Merge_flow.merged_modes flow))
      in
      Tab.add_row t
        [
          string_of_int (Design.n_insts design);
          string_of_int (Design.n_pins design);
          Stat.fmt_time_s t_setup;
          Stat.fmt_time_s t_merge;
          Stat.fmt_time_s t_pass1;
          Stat.fmt_time_s t_ind;
          Stat.fmt_time_s t_mrg;
        ])
    [ 350; 700; 1400; 2800; 5600 ];
  Tab.print t;
  Printf.printf
    "(3 modes -> 1 at every size; both phases scale near-linearly in pins)
"

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* CLI inputs for presets A-F: DIR/<preset>/design.nl plus one        *)
(* m<family>_<index>.sdc per mode, the files the byte-identity checks  *)
(* of a refactor feed to two modemerge builds.                         *)

let write_presets () =
  if Array.length Sys.argv < 3 then begin
    prerr_endline "usage: main.exe presets DIR";
    exit 1
  end;
  let dir = Sys.argv.(2) in
  let mkdir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755 in
  let write path text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  mkdir dir;
  List.iter
    (fun (p : Presets.preset) ->
      let pdir = Filename.concat dir p.Presets.pr_name in
      mkdir pdir;
      let design, info = Mm_workload.Gen_design.generate p.Presets.design_params in
      write (Filename.concat pdir "design.nl")
        (Mm_netlist.Netlist_io.to_string design);
      let suite = p.Presets.suite in
      List.iteri
        (fun family n ->
          for index = 0 to n - 1 do
            write
              (Filename.concat pdir (Printf.sprintf "m%d_%d.sdc" family index))
              (Mm_workload.Gen_modes.sdc_of_mode_spec info suite ~family ~index)
          done)
        suite.Mm_workload.Gen_modes.families;
      Printf.printf "wrote %s\n" pdir)
    Presets.all

let tables () =
  table1 ();
  tables234 ();
  figure2 ();
  tables56 ()

(* Every target, in the order the unknown-target message lists them. *)
let targets =
  [
    "tables", tables;
    "table1", table1;
    "table2", tables234;
    "table3", tables234;
    "table4", tables234;
    "walkthrough", tables234;
    "figure2", figure2;
    "table5", tables56;
    "table6", tables56;
    "ablations", ablations;
    "scale", scale_sweep;
    "smoke", smoke;
    "presets", write_presets;
    ( "all",
      fun () ->
        tables ();
        ablations () );
  ]

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match List.assoc_opt what targets with
  | Some run -> run ()
  | None ->
    Printf.eprintf "unknown target %s (use %s)\n" what
      (String.concat "|" (List.map fst targets));
    exit 1
