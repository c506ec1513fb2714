(* @chaos: execution-fault suite for the governed merge pipeline.

   Two layers, all deterministic:

   - Degradation ladder: a crashed or interrupted task is settled by
     the merge flow. Under Permissive a crashed clique keeps its modes
     individual, a crashed pair check is not mergeable, a timed-out or
     mid-merge expired clique is split down to probed singletons;
     under Strict the crash propagates. Every outcome must preserve
     the mode partition and the paper's inclusion guarantee and be
     identical at jobs=1 and jobs=4 (a QCheck property re-checks the
     guarantees over random workloads and fault mixes).
   - CLI exit codes: the modemerge binary (path in the MODEMERGE env
     var, wired by the dune @chaos rule) must exit with status 3 on a
     budget-degraded run and 2 on a budget it cannot finish under,
     treat a deadline past the clock range as none, reject out-of-range
     numeric options and the retired --retries and --serve with
     cmdliner's status 124, and exit 130 on SIGINT with the trace and
     event dump still written. The read-only subcommands' exit codes
     and stdout are pinned by MD5. *)

module Mode = Mm_sdc.Mode
module Metrics = Mm_util.Metrics
module Govern = Mm_util.Govern
module Chaos = Mm_util.Chaos
module Obs = Mm_util.Obs
module Merge_flow = Mm_core.Merge_flow
module Audit = Mm_core.Audit
module Equiv = Mm_core.Equiv
module Gen_design = Mm_workload.Gen_design
module Gen_modes = Mm_workload.Gen_modes

let () = Printexc.record_backtrace true

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Shared fixture: one generated design + mode suite written to disk,
   merged through run_files as the CLI does.                           *)

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
      (Printf.sprintf "mm_chaos_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () -> rm_rf dir);
  dir

let scratch name =
  let dir = Filename.concat scratch_root name in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  dir

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~sub s =
  let ln = String.length sub and ls = String.length s in
  let rec at i = i + ln <= ls && (String.sub s i ln = sub || at (i + 1)) in
  at 0

let families = [ 3; 2 ]

let mode_names =
  List.concat
    (List.mapi
       (fun family n ->
         List.init n (fun index -> Printf.sprintf "m%d_%d" family index))
       families)

let design, sdc_paths =
  let params =
    {
      Gen_design.default_params with
      Gen_design.seed = 7;
      n_domains = 2;
      regs_per_domain = 12;
      stages = 2;
      combo_depth = 2;
    }
  in
  let design, info = Gen_design.generate params in
  let suite =
    { Gen_modes.sp_seed = 8; families; base_period = 2.0; scan_family = false }
  in
  let dir = scratch "workload" in
  let paths =
    List.concat
      (List.mapi
         (fun family n ->
           List.init n (fun index ->
               let path =
                 Filename.concat dir (Printf.sprintf "m%d_%d.sdc" family index)
               in
               write_file path
                 (Gen_modes.sdc_of_mode_spec info suite ~family ~index);
               path))
         families)
  in
  design, paths

(* Audit JSON + merged SDC text: exactly the bytes the acceptance
   contract compares. Metric counters feed the audit's coverage
   section, so every run resets them first. *)
let result_bytes r =
  Audit.to_json r ^ "\n"
  ^ String.concat "\n" (List.map Mode.to_sdc (Merge_flow.merged_modes r))

let with_chaos spec f =
  (match Chaos.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "chaos spec %S rejected: %s" spec e);
  Fun.protect ~finally:Chaos.clear f

let run_files ?(budgets = Merge_flow.default_budgets)
    ?(policy = Merge_flow.Permissive) ~jobs ~spec () =
  Metrics.reset ();
  with_chaos spec (fun () ->
      let r =
        Merge_flow.run_files ~policy ~jobs ~budgets ~design sdc_paths
      in
      r, result_bytes r)

(* ------------------------------------------------------------------ *)
(* Soundness invariants shared by every ladder outcome                  *)

let sorted l = List.sort compare l

let assert_partition ~ctx names (r : Merge_flow.result) =
  let grouped =
    List.concat_map
      (fun (g : Merge_flow.group) -> g.Merge_flow.grp_members)
      r.Merge_flow.groups
  in
  let quarantined =
    List.map
      (fun (q : Merge_flow.quarantined) -> q.Merge_flow.q_name)
      r.Merge_flow.quarantined
  in
  let rec nodup = function
    | a :: (b :: _ as tl) -> a <> b && nodup tl
    | _ -> true
  in
  check Alcotest.bool (ctx ^ ": no mode lands in two groups") true
    (nodup (sorted (grouped @ quarantined)));
  check
    Alcotest.(list string)
    (ctx ^ ": groups + quarantine cover every mode")
    (sorted names)
    (sorted (grouped @ quarantined))

(* The paper's inclusion guarantee: a surviving merged mode must not
   relax or drop any check an individual mode requires. Equiv reports
   such relaxations in [unsound]; permissive degradation paths are
   only allowed to forfeit reduction, never soundness. *)
let assert_inclusion ~ctx (r : Merge_flow.result) =
  List.iter
    (fun (g : Merge_flow.group) ->
      match g.Merge_flow.grp_equiv with
      | None -> ()
      | Some e ->
        if e.Equiv.unsound <> [] then
          Alcotest.failf "%s: group [%s] relaxes required checks: %s" ctx
            (String.concat "," g.Merge_flow.grp_members)
            (String.concat "; " e.Equiv.unsound);
        if List.length g.Merge_flow.grp_members > 1 then
          check Alcotest.bool
            (ctx ^ ": surviving multi-mode group validated equivalent")
            true e.Equiv.equivalent)
    r.Merge_flow.groups

(* ------------------------------------------------------------------ *)
(* Merge groups hold no analysis contexts                             *)

(* A group keeps its prelim and refinement without their merged
   contexts: nothing later reads them, and they would pin a context's
   arrays for the rest of the run. *)
let test_groups_hold_no_context () =
  let r, _ = run_files ~policy:Merge_flow.Strict ~jobs:1 ~spec:"" () in
  let groups = r.Merge_flow.groups in
  check Alcotest.bool "some group was refined" true
    (List.exists (fun (g : Merge_flow.group) -> g.Merge_flow.grp_refine <> None)
       groups);
  check Alcotest.bool "prelim contexts stripped" true
    (List.for_all
       (fun (g : Merge_flow.group) ->
         g.Merge_flow.grp_prelim.Mm_core.Prelim.merged_ctx = None)
       groups);
  check Alcotest.bool "refined contexts stripped" true
    (List.for_all
       (fun (g : Merge_flow.group) ->
         match g.Merge_flow.grp_refine with
         | None -> true
         | Some rf -> rf.Mm_core.Refine.refined_ctx = None)
       groups)

(* ------------------------------------------------------------------ *)
(* In-memory workloads: [seed] picks the design and mode suite,
   [fams] the family sizes, [regs] the registers per clock domain.     *)

let build_sources ?(regs = 12) seed fams =
  let params =
    {
      Gen_design.default_params with
      Gen_design.seed;
      n_domains = 2;
      regs_per_domain = regs;
      stages = 2;
      combo_depth = 2;
    }
  in
  let design, info = Gen_design.generate params in
  let suite =
    {
      Gen_modes.sp_seed = seed + 1;
      families = fams;
      base_period = 2.0;
      scan_family = false;
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
                 src_text = Gen_modes.sdc_of_mode_spec info suite ~family ~index;
               }))
         fams)
  in
  design, sources

(* ------------------------------------------------------------------ *)
(* Degradation ladder under an exhausted stage budget                  *)

let test_budget_split_ladder () =
  let budgets =
    {
      Merge_flow.default_budgets with
      Merge_flow.bg_stage_s = [ "cliques", 0.0 ];
    }
  in
  let outcomes =
    List.map
      (fun jobs ->
        let r, bytes = run_files ~budgets ~jobs ~spec:"" () in
        let ctx = Printf.sprintf "ladder jobs=%d" jobs in
        check Alcotest.bool (ctx ^ ": splits recorded in the result") true
          (r.Merge_flow.governed.Merge_flow.gov_clique_splits > 0);
        check Alcotest.bool (ctx ^ ": splits recorded in metrics") true
          (Metrics.get_counter "govern.clique_splits" > 0);
        check Alcotest.bool (ctx ^ ": flagged degraded-under-budget") true
          (Merge_flow.degraded_under_budget r.Merge_flow.governed);
        check Alcotest.bool (ctx ^ ": deadline hit") true
          r.Merge_flow.governed.Merge_flow.gov_deadline_hit;
        check Alcotest.bool (ctx ^ ": split events in the audit trail") true
          (List.exists
             (fun (e : Merge_flow.govern_event) ->
               e.Merge_flow.ge_action = "split")
             r.Merge_flow.governed.Merge_flow.gov_events);
        assert_partition ~ctx mode_names r;
        assert_inclusion ~ctx r;
        bytes)
      [ 1; 4 ]
  in
  match outcomes with
  | [ b1; b4 ] ->
    check Alcotest.string "ladder outcome is jobs-invariant" b1 b4
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Settling crashed and interrupted tasks                              *)

(* Merge [sources] under Permissive with the chaos plan [spec] at
   jobs=1 and jobs=4. Each run must keep the partition and inclusion
   guarantees and pass [each] (called while the run's metrics are
   live); both runs must render to the same [bytes]. Returns the jobs=1
   result. *)
let at_both_jobs ?(budgets = Merge_flow.default_budgets)
    ?(bytes = result_bytes) ?(each = fun _ _ -> ()) ~ctx ~spec
    (design, sources) =
  let names = List.map (fun s -> s.Merge_flow.src_name) sources in
  let runs =
    List.map
      (fun jobs ->
        Metrics.reset ();
        with_chaos spec (fun () ->
            let r =
              Merge_flow.run_sources ~policy:Merge_flow.Permissive ~jobs
                ~budgets ~design sources
            in
            let ctx = Printf.sprintf "%s, jobs=%d" ctx jobs in
            assert_partition ~ctx names r;
            assert_inclusion ~ctx r;
            each ctx r;
            r, bytes r))
      [ 1; 4 ]
  in
  match runs with
  | [ (r, b1); (_, b4) ] ->
    check Alcotest.string (ctx ^ ": same outcome at jobs=1 and jobs=4") b1 b4;
    r
  | _ -> assert false

(* Two mergeable modes of one family. Under Permissive the run's pool
   tasks are, in order: 2 loads, 2 probes, 2 context builds, the pair
   check (occurrence 7) and the clique merge (occurrence 8). Both
   faulted batches hold a single task, so an occurrence names the same
   task at any jobs count. *)
let pair_workload = lazy (build_sources 7 [ 2 ])

let test_crashed_clique_degrades () =
  let r0 = at_both_jobs ~ctx:"unfaulted pair" ~spec:"" (Lazy.force pair_workload) in
  check Alcotest.int "the two modes merge when unfaulted" 1 r0.Merge_flow.n_merged;
  let r =
    at_both_jobs ~ctx:"crashed clique" ~spec:"pool.task@8=raise"
      (Lazy.force pair_workload)
  in
  check
    Alcotest.(list (list string))
    "the clique is kept as individual modes" [ [ "m0_0"; "m0_1" ] ]
    r.Merge_flow.degraded;
  let expected =
    "group [m0_0, m0_1] kept as individual modes: merge failed with "
    ^ Printexc.to_string (Chaos.Injected "pool.task")
  in
  check Alcotest.bool "degraded with the crash's own text" true
    (List.exists
       (fun (d : Mm_util.Diag.t) ->
         d.Mm_util.Diag.code = "merge.group-degraded"
         && d.Mm_util.Diag.message = expected)
       r.Merge_flow.diags);
  check Alcotest.bool "a crash is not a budget outcome" false
    (Merge_flow.degraded_under_budget r.Merge_flow.governed)

let test_crashed_pair_conservative () =
  ignore
    (at_both_jobs ~ctx:"crashed pair check" ~spec:"pool.task@7=raise"
       ~each:(fun ctx r ->
         check Alcotest.int (ctx ^ ": one conservative pair counted") 1
           (Metrics.get_counter "govern.conservative_pairs");
         check Alcotest.int (ctx ^ ": one conservative pair recorded") 1
           r.Merge_flow.governed.Merge_flow.gov_conservative_pairs;
         check Alcotest.int (ctx ^ ": the modes stay apart") 2
           r.Merge_flow.n_merged)
       (Lazy.force pair_workload))

let test_strict_reraises () =
  List.iter
    (fun jobs ->
      match
        run_files ~policy:Merge_flow.Strict ~jobs ~spec:"pool.task@1=raise" ()
      with
      | _ -> Alcotest.failf "jobs=%d: the injected crash must propagate" jobs
      | exception Chaos.Injected site ->
        check Alcotest.string
          (Printf.sprintf "jobs=%d: the original exception" jobs)
          "pool.task" site)
    [ 1; 4 ]

let test_timeout_counted_once () =
  let budgets =
    { Merge_flow.default_budgets with Merge_flow.bg_task_s = Some 0.05 }
  in
  ignore
    (at_both_jobs ~budgets ~ctx:"timed-out clique"
       ~spec:"pool.task@8=delay:120"
       ~each:(fun ctx r ->
         check Alcotest.int (ctx ^ ": one timeout") 1
           (Metrics.get_counter "govern.timeouts");
         check Alcotest.int (ctx ^ ": the clique is split") 1
           r.Merge_flow.governed.Merge_flow.gov_clique_splits)
       (Lazy.force pair_workload))

(* A clique merge many times longer than the cliques budget: the budget
   runs out at a checkpoint inside the merge, and the clique is split
   rather than degraded as if the merge had crashed. The interrupted
   merge may have finished some comparison passes, whose coverage
   counters then depend on timing, so the two job counts are compared
   on the merged modes, diagnostics and governance record. *)
let slow_workload = lazy (build_sources ~regs:800 5 [ 3 ])

let outcome_text (r : Merge_flow.result) =
  let g = r.Merge_flow.governed in
  String.concat "\n"
    (List.map Mode.to_sdc (Merge_flow.merged_modes r)
    @ List.map Mm_util.Diag.to_string r.Merge_flow.diags
    @ List.map
        (fun (e : Merge_flow.govern_event) ->
          String.concat " "
            [ e.Merge_flow.ge_stage; e.Merge_flow.ge_scope;
              e.Merge_flow.ge_action; e.Merge_flow.ge_detail ])
        g.Merge_flow.gov_events)

let test_mid_merge_expiry_splits () =
  let budgets =
    {
      Merge_flow.default_budgets with
      Merge_flow.bg_stage_s = [ "cliques", 0.005 ];
    }
  in
  ignore
    (at_both_jobs ~budgets ~bytes:outcome_text ~ctx:"mid-merge expiry"
       ~spec:""
       ~each:(fun ctx r ->
         let g = r.Merge_flow.governed in
         check Alcotest.bool (ctx ^ ": the clique is split") true
           (g.Merge_flow.gov_clique_splits > 0);
         check Alcotest.bool (ctx ^ ": degraded under budget") true
           (Merge_flow.degraded_under_budget g);
         check Alcotest.bool (ctx ^ ": deadline hit") true
           g.Merge_flow.gov_deadline_hit;
         let cancelled (d : Mm_util.Diag.t) =
           contains ~sub:"Govern.Cancelled" d.Mm_util.Diag.message
         in
         check Alcotest.bool (ctx ^ ": no diagnostic names Govern.Cancelled")
           false
           (List.exists cancelled
              (r.Merge_flow.diags
              @ List.concat_map
                  (fun (q : Merge_flow.quarantined) -> q.Merge_flow.q_diags)
                  r.Merge_flow.quarantined)))
       (Lazy.force slow_workload))

(* The memory watermark expires every token, but it is not a deadline:
   the audit's deadline_hit stays false. *)
let test_memory_is_not_deadline () =
  let budgets =
    { Merge_flow.default_budgets with Merge_flow.bg_mem_limit_mb = Some 0.0001 }
  in
  Fun.protect
    ~finally:(fun () -> Govern.set_memory_limit_mb None)
    (fun () ->
      let r, _ = run_files ~budgets ~jobs:1 ~spec:"" () in
      assert_partition ~ctx:"memory watermark" mode_names r;
      check Alcotest.bool "memory trips counted" true
        (Metrics.get_counter "govern.mem_trips" > 0);
      check Alcotest.bool "degraded under budget" true
        (Merge_flow.degraded_under_budget r.Merge_flow.governed);
      check Alcotest.bool "no deadline hit" false
        r.Merge_flow.governed.Merge_flow.gov_deadline_hit)

(* ------------------------------------------------------------------ *)
(* QCheck: every ladder outcome keeps the inclusion guarantee          *)

(* Three pressure mixes, all ending in a valid run: a dead cliques
   budget (guaranteed splits), a single task timeout, and a single
   crashed task. *)
let pressure_of = function
  | 0 ->
    ( "cliques-budget",
      { Merge_flow.default_budgets with Merge_flow.bg_stage_s = [ "cliques", 0.0 ] },
      "" )
  | 1 ->
    ( "task-timeout",
      { Merge_flow.default_budgets with Merge_flow.bg_task_s = Some 0.03 },
      "pool.task@3=delay:80" )
  | _ ->
    "crash", Merge_flow.default_budgets, "pool.task@1=raise"

let ladder_case_gen =
  QCheck2.Gen.(
    let* seed = 0 -- 5000 in
    let* fams = list_size (1 -- 2) (1 -- 3) in
    let* pressure = 0 -- 2 in
    return (seed, fams, pressure))

let prop_inclusion (seed, fams, pressure) =
  let name, budgets, spec = pressure_of pressure in
  let design, sources = build_sources seed fams in
  let mode_names = List.map (fun s -> s.Merge_flow.src_name) sources in
  List.iter
    (fun jobs ->
      Metrics.reset ();
      with_chaos spec (fun () ->
          let r =
            Merge_flow.run_sources ~policy:Merge_flow.Permissive ~jobs ~budgets
              ~design sources
          in
          let ctx =
            Printf.sprintf "seed=%d %s jobs=%d" seed name jobs
          in
          assert_partition ~ctx mode_names r;
          assert_inclusion ~ctx r;
          check Alcotest.int (ctx ^ ": one group per merged mode")
            r.Merge_flow.n_merged
            (List.length r.Merge_flow.groups)))
    [ 1; 4 ];
  true

let prop_ladder_inclusion =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"ladder outcomes keep the inclusion guarantee (jobs=1 and jobs=4)"
       ~count:6 ladder_case_gen prop_inclusion)

(* ------------------------------------------------------------------ *)
(* Subprocess CLI runs                                                *)

let modemerge =
  lazy
    (match Sys.getenv_opt "MODEMERGE" with
    | Some p when p <> "" -> p
    | _ ->
      Alcotest.fail
        "MODEMERGE not set: run this suite via `dune build @chaos`, which \
         wires in the modemerge binary")

let sh fmt =
  Printf.ksprintf
    (fun cmd ->
      match Sys.command cmd with
      | n -> n
      | exception Sys_error e -> Alcotest.failf "command failed to run: %s" e)
    fmt

(* One CLI workload, generated by `modemerge gen` so the subprocess
   tests exercise the shipped tool end to end. *)
let cli_fixture =
  lazy
    (let exe = Lazy.force modemerge in
     let dir = scratch "cli" in
     let rc =
       sh "%s gen -o %s --seed 11 --domains 2 --regs 10 --families 3,2 > %s 2>&1"
         (Filename.quote exe) (Filename.quote dir)
         (Filename.quote (Filename.concat dir "gen.log"))
     in
     check Alcotest.int "gen exits cleanly" 0 rc;
     let sdcs =
       List.map
         (fun n -> Filename.concat dir (n ^ ".sdc"))
         [ "m0_0"; "m0_1"; "m0_2"; "m1_0"; "m1_1" ]
     in
     List.iter
       (fun p ->
         if not (Sys.file_exists p) then
           Alcotest.failf "gen did not write %s" p)
       sdcs;
     exe, Filename.concat dir "design.nl", sdcs)

let merge_argv ~extra ~out ~audit =
  let exe, netlist, sdcs = Lazy.force cli_fixture in
  Printf.sprintf "%s merge -n %s --permissive -j 2 -o %s --audit %s %s %s"
    (Filename.quote exe) (Filename.quote netlist) (Filename.quote out)
    (Filename.quote audit) extra
    (String.concat " " (List.map Filename.quote sdcs))

let run_merge ?(env = "") ~tag ~extra () =
  let out = Filename.concat scratch_root (tag ^ "_out") in
  rm_rf out;
  let audit = Filename.concat scratch_root (tag ^ "_audit.json") in
  let log = Filename.concat scratch_root (tag ^ ".log") in
  let rc =
    sh "%s %s > %s 2>&1" env
      (merge_argv ~extra ~out ~audit)
      (Filename.quote log)
  in
  rc, out, audit

let merged_sdcs out =
  if not (Sys.file_exists out) then []
  else
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".sdc")
         (Array.to_list (Sys.readdir out)))

let test_cli_budget_exit_code () =
  let rc, out, _ =
    run_merge ~tag:"budget3" ~extra:"--budget cliques=0" ()
  in
  check Alcotest.int "budget-degraded run exits 3" 3 rc;
  check Alcotest.bool "degraded run still writes merged modes" true
    (merged_sdcs out <> [])

(* Out-of-range numbers are rejected while parsing the command line,
   before any work starts. *)
let test_cli_rejects_out_of_range () =
  let exe, netlist, sdcs = Lazy.force cli_fixture in
  let out = Filename.concat scratch_root "bad_number_out" in
  let log = Filename.concat scratch_root "bad_number.log" in
  List.iter
    (fun extra ->
      let rc =
        sh "%s merge -n %s -o %s %s %s > %s 2>&1" (Filename.quote exe)
          (Filename.quote netlist) (Filename.quote out) extra
          (String.concat " " (List.map Filename.quote sdcs))
          (Filename.quote log)
      in
      check Alcotest.int (Printf.sprintf "%s is rejected" extra) 124 rc;
      check Alcotest.bool
        (Printf.sprintf "%s: nothing was merged" extra)
        false (Sys.file_exists out))
    [ "--jobs=0"; "--jobs=-3"; "-j 0"; "--deadline=nan"; "--deadline=-1"; "--task-timeout=nan";
      "--mem-limit-mb=nan"; "--mem-limit-mb=-5"; "--mem-limit-mb=inf";
      "--budget cliques=nan"; "--budget cliques=-1" ]

(* gen rejects the counts it cannot build like any malformed value:
   at least one clock domain, no negative register or mode count. *)
let test_cli_gen_rejects_counts () =
  let exe = Lazy.force modemerge in
  let out = Filename.concat scratch_root "bad_gen_out" in
  let log = Filename.concat scratch_root "bad_gen.log" in
  List.iter
    (fun extra ->
      let rc =
        sh "%s gen -o %s %s > %s 2>&1" (Filename.quote exe) (Filename.quote out)
          extra (Filename.quote log)
      in
      check Alcotest.int (extra ^ " is rejected") 124 rc;
      check Alcotest.bool (extra ^ ": no backtrace") false
        (contains ~sub:"exception" (read_file log)
        || contains ~sub:"Raised" (read_file log));
      check Alcotest.bool (extra ^ ": nothing written") false
        (Sys.file_exists out))
    [ "--domains 0"; "--domains=-1"; "--regs=-3"; "--families=-1,2" ]

(* A chaos run with an injected timeout completes degraded and its
   metrics export carries nonzero govern.timeouts and
   govern.clique_splits. *)
let counter_in_json json name =
  let needle = Printf.sprintf "\"%s\":" name in
  let nh = String.length needle and lh = String.length json in
  let rec find i =
    if i + nh > lh then None
    else if String.sub json i nh = needle then Some (i + nh)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let j = ref i in
    while
      !j < lh && (match json.[!j] with '0' .. '9' | '.' | ' ' -> true | _ -> false)
    do
      incr j
    done;
    float_of_string_opt (String.trim (String.sub json i (!j - i)))

let test_cli_metrics_export () =
  let metrics = Filename.concat scratch_root "chaos_metrics.json" in
  let rc, out, _ =
    run_merge
      ~env:"MM_CHAOS=pool.task@1=delay:150,pool.task@2=raise"
      ~tag:"metrics"
      ~extra:
        (Printf.sprintf "--task-timeout 0.05 --budget cliques=0 --metrics %s"
           (Filename.quote metrics))
      ()
  in
  check Alcotest.int "chaos + budget run exits 3 (degraded, not dead)" 3 rc;
  check Alcotest.bool "run still merges" true (merged_sdcs out <> []);
  let json = read_file metrics in
  List.iter
    (fun name ->
      match counter_in_json json name with
      | Some v when v > 0. -> ()
      | Some _ -> Alcotest.failf "metrics export has %s = 0" name
      | None -> Alcotest.failf "metrics export is missing %s" name)
    [ "govern.timeouts"; "govern.clique_splits" ]

(* The retry rung and the HTTP server are gone, and so are their
   options. *)
let test_cli_retired_options () =
  List.iter
    (fun (tag, extra) ->
      let rc, out, _ = run_merge ~tag ~extra () in
      check Alcotest.int (extra ^ " is an unknown option") 124 rc;
      check Alcotest.bool (extra ^ ": nothing was merged") true
        (merged_sdcs out = []))
    [ "retries", "--retries 3"; "serve", "--serve 0" ]

(* SIGINT mid-merge exits 130 and still flushes a valid Chrome trace
   and a schema-versioned NDJSON event dump holding the run.signal
   event (the default disposition would kill the process without
   running at_exit). A pool.task delay stretches the run; the first
   `progress:` line on stderr shows it is in flight. *)
let test_cli_sigint_flushes () =
  let exe, netlist, sdcs = Lazy.force cli_fixture in
  let out = Filename.concat scratch_root "sigint_out" in
  rm_rf out;
  let trace = Filename.concat scratch_root "sigint_trace.json" in
  let events = Filename.concat scratch_root "sigint_events.ndjson" in
  let err = Filename.concat scratch_root "sigint.err" in
  let argv =
    Array.of_list
      ([ exe; "merge"; "-n"; netlist; "--permissive"; "-j"; "1"; "-o"; out;
         "--progress"; "--trace"; trace; "--events"; events ]
      @ sdcs)
  in
  let env =
    Array.of_list
      ("MM_CHAOS=pool.task@*=delay:200"
      :: List.filter
           (fun kv -> not (String.starts_with ~prefix:"MM_CHAOS=" kv))
           (Array.to_list (Unix.environment ())))
  in
  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] in
  let err_fd = Unix.openfile err flags 0o644 in
  let null_fd = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close err_fd;
        Unix.close null_fd)
      (fun () -> Unix.create_process_env exe argv env Unix.stdin null_fd err_fd)
  in
  let exited = ref None in
  let alive () =
    !exited = None
    &&
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> true
    | _, st ->
      exited := Some st;
      false
  in
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait_progress () =
    if not (contains ~sub:"progress:" (read_file err)) then
      if not (alive ()) then
        Alcotest.failf "merge ended before its first progress line"
      else if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        Alcotest.failf "no progress line in %s after 20 s" err
      end
      else begin
        Unix.sleepf 0.02;
        wait_progress ()
      end
  in
  wait_progress ();
  check Alcotest.bool "child still running when interrupted" true (alive ());
  Unix.kill pid Sys.sigint;
  let code =
    match
      match !exited with Some st -> st | None -> snd (Unix.waitpid [] pid)
    with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Alcotest.failf "merge stopped by signal %d, not exited" n
  in
  check Alcotest.int "SIGINT exits 130" 130 code;
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
      (Json_read.member "schema" j = Some (Json_read.Str Obs.schema_version))
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
  check Alcotest.bool "run.signal journaled" true (List.mem "run.signal" kinds);
  check Alcotest.bool "run.start journaled before the interrupt" true
    (List.mem "run.start" kinds)

(* More workers than hardware threads only slow a merge, so a --jobs
   or MM_JOBS above the recommended domain count is lowered to it (the
   merge.jobs gauge shows the pool size). On preset C, -j 8 and
   MM_JOBS=8 write the bytes of -j 2. *)
let test_cli_jobs_clamped () =
  let exe = Lazy.force modemerge in
  let p = Mm_workload.Presets.design_c in
  let design, info, _ = Mm_workload.Presets.build p in
  let dir = scratch "preset_c" in
  let netlist = Filename.concat dir "design.nl" in
  write_file netlist (Mm_netlist.Netlist_io.to_string design);
  let suite = p.Mm_workload.Presets.suite in
  let sdcs =
    List.concat
      (List.mapi
         (fun family size ->
           List.init size (fun index ->
               let path =
                 Filename.concat dir (Printf.sprintf "m%d_%d.sdc" family index)
               in
               write_file path (Gen_modes.sdc_of_mode_spec info suite ~family ~index);
               path))
         suite.Gen_modes.families)
  in
  let merge ~tag ~env ~jobs =
    let out = Filename.concat scratch_root (tag ^ "_out") in
    rm_rf out;
    let metrics = Filename.concat scratch_root (tag ^ "_metrics.json") in
    let rc =
      sh "%s %s merge -n %s %s -o %s --metrics %s %s > %s 2>&1" env
        (Filename.quote exe) (Filename.quote netlist) jobs (Filename.quote out)
        (Filename.quote metrics)
        (String.concat " " (List.map Filename.quote sdcs))
        (Filename.quote (Filename.concat scratch_root (tag ^ ".log")))
    in
    check Alcotest.int (tag ^ " exits 0") 0 rc;
    out, counter_in_json (read_file metrics) "merge.jobs"
  in
  let hw = float_of_int (Domain.recommended_domain_count ()) in
  let out2, jobs2 = merge ~tag:"jobs_2" ~env:"" ~jobs:"-j 2" in
  check Alcotest.(option (float 0.)) "-j 2 runs min 2 hw workers"
    (Some (Float.min 2. hw)) jobs2;
  List.iter
    (fun (tag, env, jobs) ->
      let out, n = merge ~tag ~env ~jobs in
      check Alcotest.(option (float 0.)) (tag ^ ": clamped to the hardware")
        (Some (Float.min 8. hw)) n;
      check Alcotest.(list string) (tag ^ ": same merged files") (merged_sdcs out2)
        (merged_sdcs out);
      List.iter
        (fun f ->
          check Alcotest.string
            (Printf.sprintf "%s: %s is identical" tag f)
            (read_file (Filename.concat out2 f))
            (read_file (Filename.concat out f)))
        (merged_sdcs out2))
    [ "jobs_8", "", "-j 8"; "env_8", "MM_JOBS=8", "" ]

(* A deadline past the clock range is no deadline: same exit, same
   merged modes as a run without one. *)
let test_cli_huge_deadline () =
  let rc0, out0, _ = run_merge ~tag:"no_deadline" ~extra:"" () in
  let rc, out, _ = run_merge ~tag:"huge_deadline" ~extra:"--deadline 1e10" () in
  check Alcotest.int "no deadline exits 0" 0 rc0;
  check Alcotest.int "--deadline 1e10 exits 0" 0 rc;
  check Alcotest.(list string) "same merged files" (merged_sdcs out0)
    (merged_sdcs out);
  List.iter
    (fun f ->
      check Alcotest.string (f ^ " is identical")
        (read_file (Filename.concat out0 f))
        (read_file (Filename.concat out f)))
    (merged_sdcs out0)

(* The heap watermark is process-wide, so it can trip after the merge,
   in the post-merge STA pass: the run ends with a located govern.memory
   fatal, not an uncaught exception, and the merged modes are already
   on disk. *)
let test_cli_memory_watermark () =
  let rc, out, _ = run_merge ~tag:"memory" ~extra:"--mem-limit-mb 1" () in
  let log = read_file (Filename.concat scratch_root "memory.log") in
  check Alcotest.int "exits 2" 2 rc;
  check Alcotest.bool "govern.memory diagnostic" true
    (contains ~sub:"fatal[govern.memory]" log);
  check Alcotest.bool "no internal error" false
    (contains ~sub:"internal error" log);
  check Alcotest.bool "merged modes written" true (merged_sdcs out <> [])

(* Two SDC files with one basename would merge under one mode name: a
   strict run refuses with a located fatal naming both files, a
   permissive run quarantines the later file and merges the rest. *)
(* Run [args] (a subcommand with its arguments, without the netlist
   option) on the fixture's netlist; the exit code and the merged
   stdout and stderr. *)
let run_cli ~tag args =
  let exe, netlist, _ = Lazy.force cli_fixture in
  let log = Filename.concat scratch_root (tag ^ ".log") in
  let rc =
    sh "%s %s -n %s > %s 2>&1" (Filename.quote exe) args
      (Filename.quote netlist) (Filename.quote log)
  in
  rc, read_file log

let lines_with ~sub log =
  List.filter (fun l -> contains ~sub l) (String.split_on_char '\n' log)

(* Every subcommand that reads SDC files, run under [policy] on [bad]
   (a file that cannot load) and one good fixture file: its name, its
   arguments, and what its output shows when the good file was
   processed. [check] takes the good file as the merged mode. *)
let sdc_subcommands ~policy ~bad ~out =
  let _, _, sdcs = Lazy.force cli_fixture in
  let good = Filename.quote (List.nth sdcs 1) in
  let on name rest = name, Printf.sprintf "%s %s %s %s %s" name policy rest
      (Filename.quote bad) good in
  [
    ( on "merge" ("-o " ^ Filename.quote out),
      fun _ -> merged_sdcs out = [ "merged_0.sdc" ] );
    ( on "explain" "--pair m0_1,m0_1",
      contains ~sub:"unknown mode pair m0_1,m0_1 (known: m0_1)" );
    on "lint" "", contains ~sub:"mode m0_1: ";
    on "relations" "", contains ~sub:"Timing relationships of m0_1";
    on "sta" "", contains ~sub:"mode m0_1 @ typical";
    on "check" ("-m " ^ good), contains ~sub:"equivalent: true";
  ]
  |> List.map (fun ((name, args), processed) -> name, args, processed)

(* A directory passes the command line's file check. Every subcommand
   loads SDC files as merge does, so each ends the same way: under
   --strict with one located io.read fatal, under --permissive with
   the directory quarantined and the other file processed. *)
let test_cli_directory_argument () =
  let dir = scratch "dir_arg" in
  let out = Filename.concat scratch_root "dir_merge_out" in
  let io_read severity =
    Printf.sprintf "%s: %s[io.read]: Is a directory" dir severity
  in
  let quarantined = "warning[merge.quarantined]: mode dir_arg quarantined at load stage" in
  List.iter
    (fun (name, args, _) ->
      rm_rf out;
      let rc, log = run_cli ~tag:("dir_strict_" ^ name) args in
      check Alcotest.int (name ^ " --strict exits 2") 2 rc;
      check Alcotest.string (name ^ " --strict: one located fatal")
        (io_read "fatal" ^ "\n") log)
    (sdc_subcommands ~policy:"--strict" ~bad:dir ~out);
  List.iter
    (fun (name, args, processed) ->
      rm_rf out;
      let rc, log = run_cli ~tag:("dir_permissive_" ^ name) args in
      check Alcotest.int (name ^ " --permissive exits 1") 1 rc;
      (* The directory is named by its diagnostic and its quarantine,
         and by nothing the subcommand printed for a mode. *)
      check Alcotest.(list string) (name ^ " --permissive: quarantined")
        [ io_read "error"; quarantined ^ "; " ^
          (if name = "merge" || name = "explain" then "merged without it"
           else "skipped") ]
        (lines_with ~sub:"dir_arg" log);
      check Alcotest.bool (name ^ " --permissive: the file processed") true
        (processed log))
    (sdc_subcommands ~policy:"--permissive" ~bad:dir ~out);
  (* A merged mode that does not load leaves check nothing to check. *)
  let _, _, sdcs = Lazy.force cli_fixture in
  let check_merged_dir policy =
    run_cli ~tag:("dir_check_merged" ^ policy)
      (Printf.sprintf "check %s -m %s %s" policy (Filename.quote dir)
         (Filename.quote (List.nth sdcs 1)))
  in
  let rc, log = check_merged_dir "--strict" in
  check Alcotest.int "check --strict -m DIR exits 2" 2 rc;
  check Alcotest.string "check --strict -m DIR: one located fatal"
    (io_read "fatal" ^ "\n") log;
  let rc, log = check_merged_dir "--permissive" in
  check Alcotest.int "check --permissive -m DIR exits 2" 2 rc;
  check Alcotest.(list string) "check --permissive -m DIR: nothing to check"
    [ io_read "error"; quarantined ^ "; skipped";
      dir ^ ": fatal[check.no-merged-mode]: the merged mode was quarantined; \
             nothing to check" ]
    (lines_with ~sub:"dir_arg" log);
  (* The same for a netlist argument, in either format. *)
  List.iter
    (fun name ->
      let nl = Filename.concat dir name in
      Sys.mkdir nl 0o755;
      let exe, _, _ = Lazy.force cli_fixture in
      let log = Filename.concat scratch_root "dir_netlist.log" in
      let rc =
        sh "%s lint -n %s %s > %s 2>&1" (Filename.quote exe) (Filename.quote nl)
          (Filename.quote (List.nth sdcs 1)) (Filename.quote log)
      in
      check Alcotest.int (name ^ ": exits 2") 2 rc;
      check Alcotest.bool (name ^ ": located io.read") true
        (contains ~sub:(nl ^ ": fatal[io.read]: Is a directory") (read_file log)))
    [ "netlist.v"; "netlist.nl" ]

(* An output path merge cannot write is reported located at the path,
   as an unreadable input is: [PATH: fatal[io.write]: MESSAGE], exit 2,
   for the merged-output directory, the audit file and an export. *)
let test_cli_write_located ~what args_of =
  let _, _, sdcs = Lazy.force cli_fixture in
  let missing = Filename.concat (scratch ("write_" ^ what)) "no_such_dir" in
  let path = Filename.concat missing "x" in
  let rc, log =
    run_cli ~tag:("write_" ^ what)
      (Printf.sprintf "merge %s %s" (args_of path)
         (String.concat " " (List.map Filename.quote sdcs)))
  in
  check Alcotest.int "exits 2" 2 rc;
  check Alcotest.(list string) "one located io.write fatal"
    [ path ^ ": fatal[io.write]: No such file or directory" ]
    (lines_with ~sub:"fatal" log)

(* A file with a syntax error is skipped by every subcommand under
   --permissive, as merge quarantines it. *)
let test_cli_syntax_error_quarantined () =
  let _, _, sdcs = Lazy.force cli_fixture in
  let dir = scratch "syntax" in
  let bad = Filename.concat dir "bad.sdc" in
  write_file bad
    (read_file (List.hd sdcs) ^ "create_clock -period 5 -name c [get_ports\n");
  let out = Filename.concat scratch_root "syntax_merge_out" in
  List.iter
    (fun (name, args, processed) ->
      rm_rf out;
      let rc, log = run_cli ~tag:("syntax_" ^ name) args in
      check Alcotest.int (name ^ " exits 1") 1 rc;
      check Alcotest.bool (name ^ ": located syntax error") true
        (contains ~sub:(bad ^ ":") log
        && contains ~sub:"error[lex.unterminated-bracket]" log);
      check Alcotest.bool (name ^ ": quarantined") true
        (contains ~sub:"warning[merge.quarantined]: mode bad quarantined at load stage" log);
      check Alcotest.bool (name ^ ": no output for the mode") false
        (contains ~sub:"mode bad:" log || contains ~sub:"of bad" log
        || contains ~sub:"mode bad @" log);
      check Alcotest.bool (name ^ ": the other file processed") true
        (processed log))
    (sdc_subcommands ~policy:"--permissive" ~bad ~out)

let test_cli_duplicate_basename () =
  let exe, netlist, sdcs = Lazy.force cli_fixture in
  let dir = scratch "dup" in
  let copy src sub =
    let d = Filename.concat dir sub in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    let dst = Filename.concat d "m.sdc" in
    write_file dst (read_file src);
    dst
  in
  let x = copy (List.nth sdcs 0) "x" and y = copy (List.nth sdcs 1) "y" in
  let run ~tag policy =
    let out = Filename.concat scratch_root (tag ^ "_out") in
    rm_rf out;
    let log = Filename.concat scratch_root (tag ^ ".log") in
    let rc =
      sh "%s merge -n %s %s -o %s %s %s > %s 2>&1" (Filename.quote exe)
        (Filename.quote netlist) policy (Filename.quote out) (Filename.quote x)
        (Filename.quote y) (Filename.quote log)
    in
    rc, out, read_file log
  in
  let rc, out, log = run ~tag:"dup_strict" "--strict" in
  check Alcotest.int "strict exits 2" 2 rc;
  check Alcotest.bool "located fatal at the later file" true
    (contains ~sub:(y ^ ": fatal[merge.duplicate-mode]") log);
  check Alcotest.bool "names the earlier file" true (contains ~sub:x log);
  check Alcotest.bool "nothing merged" true (merged_sdcs out = []);
  let rc, out, log = run ~tag:"dup_permissive" "--permissive" in
  check Alcotest.int "permissive exits 1" 1 rc;
  check Alcotest.bool "located error at the later file" true
    (contains ~sub:(y ^ ": error[merge.duplicate-mode]") log);
  check Alcotest.bool "later file quarantined" true
    (contains ~sub:"mode m quarantined at load stage" log);
  check Alcotest.(list string) "the earlier file merged alone"
    [ "merged_0.sdc" ] (merged_sdcs out)

(* [--dot] builds its individual sides from the modes the merge
   loaded, so it prints no load diagnostic a second time. *)
let test_cli_dot_diagnostics_once () =
  let exe, netlist, sdcs = Lazy.force cli_fixture in
  let dir = scratch "dot_diag" in
  let sdcs =
    List.mapi
      (fun i src ->
        let dst = Filename.concat dir (Filename.basename src) in
        write_file dst
          (read_file src
          ^ if i = 0 then "\nset_case_analysis 0 [get_pins nosuch/pin]\n" else "");
        dst)
      sdcs
  in
  let run ~tag extra =
    let out = Filename.concat dir (tag ^ "_out") in
    let err = Filename.concat dir (tag ^ ".err") in
    let rc =
      sh "%s merge -n %s -o %s %s %s > /dev/null 2> %s" (Filename.quote exe)
        (Filename.quote netlist) (Filename.quote out) extra
        (String.concat " " (List.map Filename.quote sdcs))
        (Filename.quote err)
    in
    rc, read_file err
  in
  let rc, plain = run ~tag:"plain" "" in
  check Alcotest.int "merge exits with a warning" 1 rc;
  let rc, dot = run ~tag:"dot" "--dot" in
  check Alcotest.int "merge --dot exits the same" 1 rc;
  check Alcotest.bool "the planted warning is reported" true
    (contains ~sub:"warning[sdc.no-match]" plain);
  check Alcotest.string "merge --dot prints the same diagnostics" plain dot

(* A command that resolves to nothing is reported at its own line, on
   the strict and on the recovering load path, in the text and in the
   JSON diagnostics. *)
let test_cli_resolve_warning_located () =
  let exe, netlist, sdcs = Lazy.force cli_fixture in
  let dir = scratch "resolve_loc" in
  let sdcs =
    List.map
      (fun src ->
        let dst = Filename.concat dir (Filename.basename src) in
        write_file dst (read_file src);
        dst)
      sdcs
  in
  let planted = List.hd sdcs in
  let text = read_file planted in
  check Alcotest.bool "gen ends its lines" true
    (String.ends_with ~suffix:"\n" text);
  (* The split's empty last piece is the line the command lands on. *)
  let line = List.length (String.split_on_char '\n' text) in
  write_file planted (text ^ "set_case_analysis 0 [get_pins nosuch/pin]\n");
  List.iter
    (fun policy ->
      let err = Filename.concat dir (policy ^ ".err") in
      let rc =
        sh "%s merge -n %s -o %s --diag-json %s %s > /dev/null 2> %s"
          (Filename.quote exe) (Filename.quote netlist)
          (Filename.quote (Filename.concat dir (policy ^ "_out")))
          policy
          (String.concat " " (List.map Filename.quote sdcs))
          (Filename.quote err)
      in
      let log = read_file err in
      check Alcotest.int (policy ^ ": exits with a warning") 1 rc;
      check Alcotest.bool (policy ^ ": text names the line") true
        (contains
           ~sub:(Printf.sprintf "%s:%d:1: warning[sdc.no-match]" planted line)
           log);
      check Alcotest.bool (policy ^ ": JSON names the line") true
        (contains
           ~sub:
             (Printf.sprintf {|"file":"%s","line":%d,"col":1|} planted line)
           log))
    [ "--strict"; "--permissive" ]

(* [check] names each individual mode after its file, as merge does,
   so two of them cannot share a basename: a strict run refuses the
   pair, a permissive run quarantines the later file and compares the
   merged mode against the earlier one alone. Either way no mode is
   compared under another's name. *)
let test_cli_check_same_basename () =
  let exe, netlist, sdcs = Lazy.force cli_fixture in
  let dir = scratch "check_dup" in
  let copy src sub =
    let d = Filename.concat dir sub in
    Sys.mkdir d 0o755;
    let dst = Filename.concat d "m.sdc" in
    write_file dst (read_file src);
    dst
  in
  let x = copy (List.nth sdcs 0) "x" and y = copy (List.nth sdcs 3) "y" in
  let run ~tag policy individuals =
    let log = Filename.concat dir (tag ^ ".log") in
    let rc =
      sh "%s check %s -n %s -m %s %s > %s 2>&1" (Filename.quote exe) policy
        (Filename.quote netlist) (Filename.quote x)
        (String.concat " " (List.map Filename.quote individuals))
        (Filename.quote log)
    in
    rc, read_file log
  in
  let rc, _ = run ~tag:"alone" "" [ x ] in
  check Alcotest.int "a mode is equivalent to itself" 0 rc;
  let rc, log = run ~tag:"pair" "--strict" [ x; y ] in
  check Alcotest.int "strict: the pair is refused" 2 rc;
  check Alcotest.bool "strict: located at the later file, naming the earlier" true
    (contains ~sub:(y ^ ": fatal[merge.duplicate-mode]") log
    && contains ~sub:("already taken by " ^ x) log);
  check Alcotest.bool "strict: nothing compared" false
    (contains ~sub:"equivalent:" log);
  let rc, log = run ~tag:"pair_permissive" "--permissive" [ x; y ] in
  check Alcotest.int "permissive: exits with a warning" 1 rc;
  check Alcotest.bool "permissive: the later file quarantined" true
    (contains ~sub:(y ^ ": error[merge.duplicate-mode]") log
    && contains ~sub:"mode m quarantined at load stage; skipped" log);
  check Alcotest.bool "permissive: compared against the earlier file alone" true
    (contains ~sub:"equivalent: true (0 mismatches" log)

(* ------------------------------------------------------------------ *)
(* Pinned subcommand output: each read-only subcommand on the fixture,
   by exit code and the MD5 of its stdout. The `, 0.001s` runtime that
   closes a line is masked; nothing else in these outputs varies
   between runs.                                                       *)

let mask_runtime line =
  let n = String.length line in
  match String.rindex_opt line ',' with
  | Some i when i + 3 <= n && line.[n - 1] = 's' ->
    let t = String.sub line (i + 2) (n - i - 3) in
    if t <> "" && String.for_all (fun c -> c = '.' || (c >= '0' && c <= '9')) t
    then String.sub line 0 (i + 2) ^ "Xs"
    else line
  | _ -> line

(* The merged modes `check -m` and `explain --line` read: one strict
   merge of the fixture. *)
let pin_merged =
  lazy
    (let exe, netlist, sdcs = Lazy.force cli_fixture in
     let out = scratch "pin_merge" in
     let rc =
       sh "%s merge -n %s -o %s %s > /dev/null 2>&1" (Filename.quote exe)
         (Filename.quote netlist) (Filename.quote out)
         (String.concat " " (List.map Filename.quote sdcs))
     in
     check Alcotest.int "fixture merges cleanly" 0 rc;
     Filename.concat out "merged_0.sdc")

(* [args sdcs] is the command line without the netlist option; [sdcs]
   are the fixture's mode files. *)
let test_cli_pinned ~args ~rc ~md5 () =
  let exe, netlist, sdcs = Lazy.force cli_fixture in
  let stdout = Filename.concat scratch_root "pinned.out" in
  let got =
    sh "%s %s -n %s > %s 2> /dev/null" (Filename.quote exe) (args sdcs)
      (Filename.quote netlist) (Filename.quote stdout)
  in
  check Alcotest.int "exit code" rc got;
  let text =
    String.split_on_char '\n' (read_file stdout)
    |> List.map mask_runtime |> String.concat "\n"
  in
  check Alcotest.string "stdout MD5" md5 (Digest.to_hex (Digest.string text))

let pinned_cases =
  let files sdcs = String.concat " " (List.map Filename.quote sdcs) in
  let on_all cmd sdcs = cmd ^ " " ^ files sdcs in
  let merged () = Lazy.force pin_merged in
  [
    ( "sta --paths 2", on_all "sta --paths 2", 0,
      "4ab9184d1510e36719f59a5ea614bde3" );
    ("lint", on_all "lint", 1, "40d453f60307e4db0bcbf37c2d555209");
    ("relations", on_all "relations", 0, "e0abaa9e0041b2a3deedcc756101ee6a");
    ( "check -m",
      (fun sdcs ->
        Printf.sprintf "check -m %s %s" (Filename.quote (merged ()))
          (files (List.filteri (fun i _ -> i < 3) sdcs))),
      0, "0406bf83c04ccb8ac1cdf78938a360ac" );
    ("explain", on_all "explain", 0, "c3edc7d6024aff0cf2cb8091b829134f");
    ( "explain --pair", on_all "explain --pair m0_0,m1_0", 0,
      "97e60c8f26c9685f4c75bc503bbbed23" );
    ( "explain --id", on_all "explain --id 'merged_0#c0'", 0,
      "46278ced3662daad11b1656f9e4c4c01" );
    ( "explain --line",
      (fun sdcs ->
        let line =
          List.nth (String.split_on_char '\n' (read_file (merged ()))) 3
        in
        on_all ("explain --line " ^ Filename.quote line) sdcs),
      0, "3162f1af590b713b02b286fb4b6e89a9" );
    ( "explain unknown --pair", on_all "explain --pair m0_0,zz", 1,
      "929ffe5b2569a2c551ae7b914096e2f5" );
    (* The job count and the policy change no output on clean input. *)
    ( "sta -j 2 --paths 2", on_all "sta -j 2 --paths 2", 0,
      "4ab9184d1510e36719f59a5ea614bde3" );
    ( "lint --permissive", on_all "lint --permissive", 1,
      "40d453f60307e4db0bcbf37c2d555209" );
    ( "relations --permissive", on_all "relations --permissive", 0,
      "e0abaa9e0041b2a3deedcc756101ee6a" );
    ( "check --permissive -m",
      (fun sdcs ->
        Printf.sprintf "check --permissive -m %s %s"
          (Filename.quote (merged ()))
          (files (List.filteri (fun i _ -> i < 3) sdcs))),
      0, "0406bf83c04ccb8ac1cdf78938a360ac" );
  ]
  |> List.map (fun (name, args, rc, md5) ->
         tc ("pinned " ^ name) (test_cli_pinned ~args ~rc ~md5))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mm_chaos"
    [
      ( "merge_flow",
        [ tc "merge groups hold no contexts" test_groups_hold_no_context ] );
      ( "ladder",
        [ tc "cliques budget forces sound splits" test_budget_split_ladder;
          prop_ladder_inclusion;
          tc "crashed clique degrades" test_crashed_clique_degrades;
          tc "crashed pair check is conservative"
            test_crashed_pair_conservative;
          tc "strict re-raises a crashed task" test_strict_reraises;
          tc "timeout counted once" test_timeout_counted_once;
          tc "mid-merge expiry splits the clique" test_mid_merge_expiry_splits;
          tc "memory pressure is no deadline hit" test_memory_is_not_deadline;
        ] );
      ( "cli",
        [
          tc "budget-degraded exit code 3" test_cli_budget_exit_code;
          tc "out-of-range numbers rejected" test_cli_rejects_out_of_range;
          tc "gen rejects counts it cannot build" test_cli_gen_rejects_counts;
          tc "chaos metrics export" test_cli_metrics_export;
          tc "--retries and --serve are unknown" test_cli_retired_options;
          tc "-j above the hardware is clamped" test_cli_jobs_clamped;
          tc "--deadline 1e10 is no deadline" test_cli_huge_deadline;
          tc "memory watermark exits 2" test_cli_memory_watermark;
          tc "duplicate basename refused" test_cli_duplicate_basename;
          tc "a directory argument is named" test_cli_directory_argument;
          tc "a syntax error is quarantined by every subcommand"
            test_cli_syntax_error_quarantined;
          tc "check keeps same-named modes apart" test_cli_check_same_basename;
          tc "--dot prints each load diagnostic once"
            test_cli_dot_diagnostics_once;
          tc "resolve warnings carry their line"
            test_cli_resolve_warning_located;
          tc "SIGINT flushes trace and event dump" test_cli_sigint_flushes;
        ]
        @ pinned_cases
        @ [
            tc "an unwritable -o is located" (fun () ->
                test_cli_write_located ~what:"o" (fun p ->
                    "-o " ^ Filename.quote p));
            tc "an unwritable --audit is located" (fun () ->
                test_cli_write_located ~what:"audit" (fun p ->
                    Printf.sprintf "-o %s --audit %s"
                      (Filename.quote (Filename.concat scratch_root "audit_out"))
                      (Filename.quote p)));
            tc "an unwritable --metrics is located" (fun () ->
                test_cli_write_located ~what:"metrics" (fun p ->
                    Printf.sprintf "-o %s --metrics %s"
                      (Filename.quote (Filename.concat scratch_root "m_out"))
                      (Filename.quote p)));
          ] );
    ]
