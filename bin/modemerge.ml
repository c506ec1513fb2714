(* modemerge: automated SDC mode merging from the command line.

   Subcommands:
     merge      merge N SDC mode files against a netlist
     explain    lineage of merged constraints / pair verdicts
     sta        run wire-load-model STA (+ worst paths, DRC, corners)
     relations  print Table-1 style timing relationships
     lint       constraint-quality checks for each mode
     check      equivalence-check a merged mode against individuals
     gen        emit a synthetic design + mode suite to a directory

   Netlists may be the text format (.nl) or structural Verilog (.v);
   a Liberty file supplies custom cells via --liberty.

   Error handling: every problem is reported to stderr as one
   [file:line:col: severity[code]: message] line. Exit codes are
   0 (clean), 1 (completed with warnings / findings), 2 (fatal,
   including a budget exhausted under --strict or outside the merge
   flow) and 3 (completed, but degraded under budget pressure — see
   --deadline / --budget / --task-timeout / --mem-limit-mb). --strict
   (default) fails fast on malformed input; --permissive recovers,
   quarantines broken modes and reports. *)

module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Context = Mm_timing.Context
module Sta = Mm_timing.Sta
module Merge_flow = Mm_core.Merge_flow
module Diag = Mm_util.Diag
module Obs = Mm_util.Obs
module Govern = Mm_util.Govern
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Diagnostic output and exit-code convention                          *)

let exit_clean = 0
let exit_warn = 1
let exit_fatal = 2
let exit_budget = 3

(* Any Warning-or-worse diagnostic printed during the run turns a
   clean exit into exit code 1. *)
let warned = ref false

(* Governance changed the outcome (clique split, budget quarantine,
   conservative pair verdict): exit 3, which beats exit 1 — a budget
   degradation is always also warned about. *)
let budget_degraded = ref false

let print_diag d =
  if Diag.severity_rank d.Diag.severity >= Diag.severity_rank Diag.Warning then
    warned := true;
  Printf.eprintf "%s\n" (Diag.to_string d)

let print_diags = List.iter print_diag

let fatal ?loc ~code fmt =
  Printf.ksprintf
    (fun msg ->
      print_diag (Diag.make ?loc Diag.Fatal ~code msg);
      exit exit_fatal)
    fmt

let finish () =
  exit
    (if !budget_degraded then exit_budget
     else if !warned then exit_warn
     else exit_clean)

(* Catch SDC syntax errors and refused SDC files under --strict, stray
   IO failures and exhausted budgets from any subcommand body and route
   them through the exit-code convention instead of a backtrace. A
   memory watermark set by --mem-limit-mb is process-wide, so it can
   trip after the merge, in the post-merge STA pass. *)
let guard_io f =
  try f () with
  | Mm_sdc.Parser.Error { loc; msg } ->
    fatal ?loc ~code:(Mm_sdc.Parser.error_code msg) "%s" msg
  | Merge_flow.Load_error d ->
    print_diag d;
    exit exit_fatal
  | Sys_error msg -> fatal ~code:"io.error" "%s" msg
  | Failure msg -> fatal ~code:"cli.failure" "%s" msg
  | Govern.Cancelled reason ->
    fatal ~code:(Govern.reason_code reason) "%s"
      (Govern.reason_to_string reason)

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)

let cell_finder liberty =
  match liberty with
  | None -> Mm_netlist.Library.find
  | Some path ->
    let lib =
      try Mm_netlist.Liberty.load_file path
      with Mm_netlist.Liberty.Parse_error { line; msg } ->
        fatal ~loc:(Diag.loc ~line path) ~code:"io.liberty" "%s" msg
    in
    fun name ->
      (match
         List.find_opt
           (fun c -> c.Mm_netlist.Lib_cell.cell_name = name)
           lib.Mm_netlist.Liberty.cells
       with
      | Some c -> Some c
      | None -> Mm_netlist.Library.find name)

let read_design ?liberty path =
  try
    if Filename.check_suffix path ".v" then
      Mm_netlist.Verilog.read_file ~lib:(cell_finder liberty) path
    else Mm_netlist.Netlist_io.read_file path
  with
  | Failure msg -> fatal ~loc:(Diag.loc path) ~code:"io.netlist" "%s" msg
  | Mm_netlist.Verilog.Error { line; msg } ->
    fatal ~loc:(Diag.loc ~line path) ~code:"io.verilog" "%s" msg
  | Sys_error msg -> fatal ~loc:(Diag.loc path) ~code:"io.read" "%s" msg

(* The load diagnostics, then each quarantined mode's diagnostics and
   what the run did [without] it. *)
let print_load ~without diags quarantined =
  print_diags diags;
  List.iter
    (fun (q : Merge_flow.quarantined) ->
      print_diags q.Merge_flow.q_diags;
      print_diag
        (Diag.makef Diag.Warning ~code:"merge.quarantined"
           "mode %s quarantined at %s stage; %s" q.Merge_flow.q_name
           (Merge_flow.stage_to_string q.Merge_flow.q_stage)
           without))
    quarantined

(* The modes of the SDC files, loaded as merge loads them. *)
let load_modes ~policy design paths =
  let l = Merge_flow.load_files ~policy ~design paths in
  print_load ~without:"skipped" l.Merge_flow.l_diags l.Merge_flow.l_quarantined;
  l.Merge_flow.l_modes

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)

(* The design is read when the subcommand body asks for it: after the
   observability setup and the checks of the other options. *)
let design_term =
  let netlist =
    let doc = "Netlist file: .v structural Verilog or the .nl text format." in
    Arg.(required & opt (some file) None & info [ "n"; "netlist" ] ~doc)
  and liberty =
    let doc = "Liberty (.lib) file providing additional cells." in
    Arg.(value & opt (some file) None & info [ "liberty" ] ~doc)
  in
  Term.(const (fun netlist liberty () -> read_design ?liberty netlist)
        $ netlist $ liberty)

let sdc_args =
  let doc = "SDC mode files." in
  Arg.(non_empty & pos_all file [] & info [] ~docv:"SDC" ~doc)

(* ------------------------------------------------------------------ *)
(* Observability: one flag set shared by every subcommand
   (--trace / --metrics / --profile / --profile-gc / --events /
   --progress)                                                         *)

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

(* Run [f], which writes [path]; a failure is reported located at the
   path, as a failed read is: [PATH: fatal[io.write]: MESSAGE]. *)
let writing path f =
  try f ()
  with Sys_error msg ->
    fatal ~loc:(Diag.loc path) ~code:"io.write" "%s"
      (Diag.sys_error_message ~path msg)

let make_dir dir =
  writing dir (fun () -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)

(* Span recording is off by default (it is the only part of the
   observability layer with a per-callsite cost); any flag whose
   exporter reads the span sink turns it on.

   All exports run through one idempotent flush, registered both with
   at_exit (covers clean, warn, fatal and uncaught-exception exits) and
   with SIGINT/SIGTERM handlers: the default dispositions kill the
   process without running at_exit, which used to lose every pending
   trace/metrics file on Ctrl-C. The handlers route through
   Stdlib.exit with the conventional 128+signal codes, so an
   interrupted run still leaves a valid (partial) trace and event
   dump. *)
let obs_setup trace metrics profile profile_gc events progress () =
  if trace <> None || metrics <> None || profile || profile_gc then
    Obs.set_enabled true;
  if profile_gc then Obs.set_gc_enabled true;
  if progress then Mm_util.Progress.set_render true;
  let flushed = ref false in
  let flush_exports () =
    if not !flushed then begin
      flushed := true;
      Mm_util.Progress.render_finish ();
      let export text path =
        writing path (fun () -> write_file path (text ()))
      in
      Option.iter (export (fun () -> Obs.trace_event_json () ^ "\n")) trace;
      Option.iter (export (fun () -> Obs.metrics_json () ^ "\n")) metrics;
      Option.iter (export Obs.events_ndjson) events;
      if profile || profile_gc then begin
        prerr_string (Obs.profile_tree ~gc:profile_gc ());
        prerr_string (Mm_util.Pool.utilization_report ())
      end
    end
  in
  at_exit flush_exports;
  let on_signal signum =
    let name, code =
      if signum = Sys.sigterm then "SIGTERM", 143 else "SIGINT", 130
    in
    Obs.event "run.signal" ~attrs:[ "signal", name ];
    Stdlib.exit code
  in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
  with Invalid_argument _ | Sys_error _ -> ()

(* Every subcommand takes the identical observability flag set, so a
   flag learned on merge works verbatim on every other subcommand. The
   term's value is the setup itself, run first by the subcommand. *)
let obs_term =
  let file name doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)
  and flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  Term.(
    const obs_setup
    $ file "trace"
        "Write a Chrome trace_event JSON file of the run's pipeline spans \
         (open in chrome://tracing or Perfetto)."
    $ file "metrics"
        "Write a flat metrics JSON file: pipeline counters (e.g. \
         sta.tags_propagated, merge.cliques) plus per-stage span durations."
    $ flag "profile"
        "Print a per-stage profile tree (call counts, total/self wall time) \
         to stderr after the run, followed by a pool-utilization summary."
    $ flag "profile-gc"
        "Like $(b,--profile), with GC columns per stage: allocated words \
         (millions) and minor/major collection counts. Also adds gc.* \
         counter tracks to $(b,--trace) output."
    $ file "events"
        "Write the structured event journal (stage boundaries, quarantines, \
         clique splits, chaos injections) as schema-versioned NDJSON on \
         exit — including fatal exits and SIGINT/SIGTERM."
    $ flag "progress"
        "Render live progress to stderr: the open merge stage, then pool \
         tasks and STA sweep blocks done/total with ETA; an in-place bar on \
         a TTY, occasional plain lines on a pipe.")

(* One subcommand: [body] is the subcommand's term, applied to every
   option but the observability flags; it runs after their setup and
   under the exit-code convention. *)
let cmd name ~doc body =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun setup body ->
          guard_io (fun () ->
              setup ();
              body ();
              finish ()))
      $ obs_term $ body)

(* Numeric values a run cannot honour are rejected while parsing the
   command line, like any other malformed value (exit 124). *)
let checked conv ~what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok x when ok x -> Ok x
    | Ok _ ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int ~what:"an integer >= 1" (fun n -> n >= 1)
let non_negative_int = checked Arg.int ~what:"an integer >= 0" (fun n -> n >= 0)

let non_negative_float =
  checked Arg.float ~what:"a finite number >= 0" (fun x ->
      Float.is_finite x && x >= 0.)

let jobs_arg =
  let doc =
    "Number of worker domains for the parallel pipeline stages (mode \
     loading, mergeability checks, per-clique merges, STA sweeps). \
     Defaults to $(b,MM_JOBS) or the hardware's recommended domain \
     count; 1 runs fully sequentially. A value above the recommended \
     domain count, here or in $(b,MM_JOBS), is lowered to it: more \
     workers than hardware threads only slow the run. Results are \
     identical for any value."
  in
  Term.(
    const (Option.map Mm_util.Pool.clamp_jobs)
    $ Arg.(
        value
        & opt (some positive_int) None
        & info [ "j"; "jobs" ] ~docv:"N" ~doc))

let policy_arg =
  let strict =
    ( Merge_flow.Strict,
      Arg.info [ "strict" ]
        ~doc:"Fail fast: any malformed constraint aborts the run (default)." )
  in
  let permissive =
    ( Merge_flow.Permissive,
      Arg.info [ "permissive" ]
        ~doc:
          "Recover and report: malformed commands are skipped with \
           diagnostics, broken modes are quarantined, and failing merge \
           groups fall back to individual modes." )
  in
  Arg.(value & vflag Merge_flow.Strict [ strict; permissive ])

(* ------------------------------------------------------------------ *)
(* Resource governance: --deadline / --budget / --task-timeout /
   --mem-limit-mb.                                                     *)

(* The budgets, checked when the subcommand body asks for them. *)
let budgets_term =
  let limit name ~docv doc =
    Arg.(value & opt (some non_negative_float) None & info [ name ] ~docv ~doc)
  in
  let budgets_of deadline stage_budgets task_timeout mem_limit () =
    List.iter
      (fun (stage, _) ->
        if not (List.mem stage Merge_flow.stage_names) then
          fatal ~code:"cli.budget" "unknown --budget stage %S (stages: %s)"
            stage
            (String.concat ", " Merge_flow.stage_names))
      stage_budgets;
    {
      Merge_flow.bg_deadline_s = deadline;
      bg_stage_s = stage_budgets;
      bg_task_s = task_timeout;
      bg_mem_limit_mb = mem_limit;
    }
  in
  let stage_budgets =
    let doc =
      Printf.sprintf
        "Per-stage budget in seconds, repeatable: $(b,--budget \
         cliques=2.5). Stages: %s."
        (String.concat ", " Merge_flow.stage_names)
    in
    Arg.(
      value
      & opt_all (pair ~sep:'=' string non_negative_float) []
      & info [ "budget" ] ~docv:"STAGE=SEC" ~doc)
  in
  Term.(
    const budgets_of
    $ limit "deadline" ~docv:"SEC"
        "Global wall-clock deadline in seconds. When it expires, in-flight \
         work is cancelled cooperatively and the run degrades (permissive) \
         or aborts (strict)."
    $ stage_budgets
    $ limit "task-timeout" ~docv:"SEC"
        "Per-task timeout in seconds (one mode load, probe, pair check or \
         clique merge). A timed-out task walks the degradation ladder \
         (split, quarantine)."
    $ limit "mem-limit-mb" ~docv:"MB"
        "Process heap watermark in MiB; exceeding it cancels in-flight work \
         cooperatively instead of risking an OOM kill.")

(* Shared by merge and explain: run the flow, flagging a run degraded
   under budget for exit code 3, and report its diagnostics. *)
let run_flow ~policy ?jobs ?budgets ~design sdcs =
  let r = Merge_flow.run_files ~policy ?jobs ?budgets ~design sdcs in
  if Merge_flow.degraded_under_budget r.Merge_flow.governed then begin
    budget_degraded := true;
    let g = r.Merge_flow.governed in
    print_diag
      (Diag.makef Diag.Warning ~code:"govern.degraded"
         "completed degraded under budget pressure: %d clique split(s), %d \
          budget quarantine(s), %d conservative pair verdict(s)"
         g.Merge_flow.gov_clique_splits g.Merge_flow.gov_budget_quarantines
         g.Merge_flow.gov_conservative_pairs)
  end;
  print_load ~without:"merged without it" r.Merge_flow.diags
    r.Merge_flow.quarantined;
  r

let merge_cmd =
  let outdir =
    let doc = "Directory for the merged SDC files (created if missing)." in
    Arg.(value & opt string "merged_out" & info [ "o"; "out" ] ~doc)
  in
  let diag_json =
    let doc = "Additionally dump all diagnostics as a JSON array to stderr." in
    Arg.(value & flag & info [ "diag-json" ] ~doc)
  in
  let audit_arg =
    let doc =
      "Write a machine-readable audit report: schema-versioned JSON with \
       the mergeability verdict matrix, per-constraint lineage tables and \
       the comparison coverage counters. Byte-identical for any --jobs \
       value."
    in
    Arg.(value & opt (some string) None & info [ "audit" ] ~docv:"FILE" ~doc)
  in
  let annotate_arg =
    let doc =
      "Embed provenance comments in the emitted SDC: a '# prov: <id> \
       <rule> [modes]' line above every constraint."
    in
    Arg.(value & flag & info [ "annotate" ] ~doc)
  in
  let dot_arg =
    let doc =
      "Also write a Graphviz merged_N.dot per merged mode: the timing \
       graph's clock network with merged-vs-individual edge attribution \
       (red = propagation present only in the merged mode)."
    in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let run design sdcs outdir policy jobs diag_json audit annotate dot budgets
      () =
    let budgets = budgets () in
    let design = design () in
    let result = run_flow ~policy ?jobs ~budgets ~design sdcs in
    if diag_json then
      Printf.eprintf "%s\n"
        (Diag.render_json
           (result.Merge_flow.diags
           @ List.concat_map
               (fun (q : Merge_flow.quarantined) -> q.Merge_flow.q_diags)
               result.Merge_flow.quarantined));
    print_string (Mm_core.Report.mergeability_text result.Merge_flow.mergeability);
    Printf.printf "Merged %d modes into %d (%.1f%% reduction) in %.2fs\n"
      result.Merge_flow.n_individual result.Merge_flow.n_merged
      result.Merge_flow.reduction_percent result.Merge_flow.runtime_s;
    (* The audit reads only deterministic merge data, so it is written
       before the STA pass touches the process. *)
    Option.iter
      (fun path ->
        writing path (fun () -> Mm_core.Audit.write path result);
        Printf.printf "audit report -> %s\n" path)
      audit;
    make_dir outdir;
    (* Like the audit, the merged files are written before the graph
       and STA passes, so a budget those passes exhaust (the memory
       watermark is process-wide) still leaves them on disk. *)
    let paths =
      List.map
        (fun (name, text) ->
          let path = Filename.concat outdir name in
          writing path (fun () -> write_file path text);
          path)
        (Merge_flow.merged_files ~annotate result)
    in
    if dot then begin
      (* The individual sides that attribute clock-network edges are
         the modes the merge loaded; every group member is one of them. *)
      List.iteri
        (fun i (g : Merge_flow.group) ->
          let side name =
            List.find_opt
              (fun (m : Mode.t) -> m.Mode.mode_name = name)
              result.Merge_flow.modes
            |> Option.map (fun m ->
                   {
                     Mm_timing.Dot.side_name = name;
                     side_ctx = Context.create design m;
                     side_rename =
                       Mm_core.Prelim.rename_of g.Merge_flow.grp_prelim name;
                   })
          in
          let sides = List.filter_map side g.Merge_flow.grp_members in
          let ctx = Context.create design g.Merge_flow.grp_mode in
          let path = Filename.concat outdir (Printf.sprintf "merged_%d.dot" i) in
          writing path (fun () ->
              Mm_timing.Dot.write path ~individual:sides
                ~clock_network_only:true ctx);
          Printf.printf "clock-network graph -> %s\n" path)
        result.Merge_flow.groups
    end;
    (* Post-merge STA sanity pass: one analysis per merged mode (a
       parallel sweep), so the run reports QoR (tag count, worst slack)
       next to the equivalence verdict. *)
    let reports =
      Mm_util.Pool.with_pool ?jobs @@ fun pool ->
      Sta.analyze_many ~pool design
        (List.map
           (fun (g : Merge_flow.group) -> g.Merge_flow.grp_mode)
           result.Merge_flow.groups)
    in
    List.iter2
      (fun path ((g : Merge_flow.group), rep) ->
        let slack_txt =
          match Sta.worst_setup_by_endpoint rep with
          | [] -> ""
          | l ->
            Printf.sprintf ", worst slack %.3f"
              (List.fold_left (fun a (_, s) -> Float.min a s) Float.infinity l)
        in
        Printf.printf "  group [%s] -> %s%s (STA: %d tags%s)\n"
          (String.concat ", " g.Merge_flow.grp_members)
          path
          (match g.Merge_flow.grp_equiv with
          | Some e when e.Mm_core.Equiv.equivalent -> " (validated equivalent)"
          | Some e ->
            Printf.sprintf " (NOT equivalent: %d mismatches)"
              e.Mm_core.Equiv.mismatches
          | None -> "")
          rep.Sta.rep_n_tags slack_txt)
      paths
      (List.combine result.Merge_flow.groups reports);
    if
      List.exists
        (fun (g : Merge_flow.group) ->
          match g.Merge_flow.grp_equiv with
          | Some e -> not e.Mm_core.Equiv.equivalent
          | None -> false)
        result.Merge_flow.groups
    then
      fatal ~code:"merge.not-equivalent"
        "a merged mode failed the equivalence check"
  in
  cmd "merge" ~doc:"Merge SDC timing modes into superset modes."
    Term.(
      const run $ design_term $ sdc_args $ outdir $ policy_arg $ jobs_arg
      $ diag_json $ audit_arg $ annotate_arg $ dot_arg $ budgets_term)

let explain_cmd =
  let line_arg =
    let doc =
      "Explain one merged-SDC constraint: the exact command text as it \
       appears in the emitted merged SDC (leading/trailing whitespace \
       ignored)."
    in
    Arg.(value & opt (some string) None & info [ "line" ] ~docv:"SDC" ~doc)
  in
  let id_arg =
    let doc = "Explain a constraint by provenance id, e.g. merged_0#c12." in
    Arg.(value & opt (some string) None & info [ "id" ] ~docv:"ID" ~doc)
  in
  let pair_arg =
    let doc =
      "Explain a mode pair's mergeability verdict, e.g. --pair cs1,cs2."
    in
    Arg.(
      value
      & opt (some (pair ~sep:',' string string)) None
      & info [ "pair" ] ~docv:"A,B" ~doc)
  in
  let run design sdcs policy jobs line id pr () =
    (* The merge is re-run, as merge runs it, to rebuild lineage; ids
       are stable across runs and --jobs values, so an id taken from an
       audit file or an annotated SDC resolves here. *)
    let result = run_flow ~policy ?jobs ~design:(design ()) sdcs in
    (* --line and --id: every merged constraint [find] picks out of a
       group's lineage, under the group's scope. *)
    let lookup find ~none =
      match
        List.concat_map
          (fun (g : Merge_flow.group) ->
            let prov = g.Merge_flow.grp_prov in
            List.map (fun e -> Mm_util.Prov.scope prov, e) (find prov))
          result.Merge_flow.groups
      with
      | [] ->
        warned := true;
        Printf.printf "%s\n" none
      | found ->
        List.iter
          (fun (scope, e) ->
            Printf.printf "[%s]\n%s\n" scope (Mm_util.Prov.explain_entry e))
          found
    in
    Option.iter
      (fun line ->
        lookup
          (fun prov -> Mm_util.Prov.find_line prov line)
          ~none:("no merged constraint matches: " ^ String.trim line))
      line;
    Option.iter
      (fun id ->
        lookup
          (fun prov -> Option.to_list (Mm_util.Prov.find_id prov id))
          ~none:("no constraint with id " ^ id))
      id;
    Option.iter
      (fun (a, b) ->
        let m = result.Merge_flow.mergeability in
        let names = m.Mm_core.Mergeability.mode_names in
        let index_of n = Array.to_list names |> List.find_index (( = ) n) in
        match index_of a, index_of b with
        | Some i, Some j when i <> j ->
          let i, j = if i < j then i, j else j, i in
          if m.Mm_core.Mergeability.adjacency.(i).(j) then
            Printf.printf "%s and %s are mergeable\n" names.(i) names.(j)
          else begin
            let reasons = Mm_core.Mergeability.reasons m (i, j) in
            Printf.printf "%s and %s are NOT mergeable\n" names.(i) names.(j);
            (match reasons with
            | first :: _ ->
              Printf.printf "  first blocking reason: %s\n" first
            | [] -> ());
            List.iter (Printf.printf "  - %s\n") reasons
          end
        | _ ->
          warned := true;
          Printf.printf "unknown mode pair %s,%s (known: %s)\n" a b
            (String.concat ", " (Array.to_list names)))
      pr;
    if line = None && id = None && pr = None then
      (* No query: dump the full lineage of every merged mode. *)
      List.iter
        (fun (g : Merge_flow.group) ->
          List.iter
            (fun e -> Printf.printf "%s\n" (Mm_util.Prov.explain_entry e))
            (Mm_util.Prov.entries g.Merge_flow.grp_prov))
        result.Merge_flow.groups
  in
  cmd "explain"
    ~doc:
      "Explain the lineage of merged constraints: which rule produced a \
       constraint from which source modes, or why a mode pair did not \
       merge."
    Term.(
      const run $ design_term $ sdc_args $ policy_arg $ jobs_arg $ line_arg
      $ id_arg $ pair_arg)

let sta_cmd =
  let paths_arg =
    Arg.(value & opt int 0 & info [ "paths" ] ~doc:"Print the N worst paths.")
  in
  let corner_conv =
    Arg.enum
      [ "typical", Mm_timing.Corner.typical; "slow", Mm_timing.Corner.slow;
        "fast", Mm_timing.Corner.fast ]
  in
  let corner_arg =
    Arg.(
      value
      & opt corner_conv Mm_timing.Corner.typical
      & info [ "corner" ] ~doc:"PVT corner: typical, slow or fast.")
  in
  let run design sdcs paths corner policy jobs () =
    let design = design () in
    let modes = load_modes ~policy design sdcs in
    let reports =
      Mm_util.Pool.with_pool ?jobs @@ fun pool ->
      Sta.analyze_many ~corner ~pool design modes
    in
    List.iter2
      (fun mode report ->
        Printf.printf "mode %s @ %s: %d endpoints, %d tags, %.3fs\n"
          report.Sta.rep_mode corner.Mm_timing.Corner.corner_name
          (List.length report.Sta.rep_slacks)
          report.Sta.rep_n_tags report.Sta.rep_runtime;
        List.iter
          (fun (v : Sta.drc_violation) ->
            Printf.printf "  DRC %s on %s: %.4f > limit %.4f\n"
              (match v.Sta.drv_kind with
              | Mm_sdc.Ast.Max_transition -> "max_transition"
              | Mm_sdc.Ast.Max_capacitance -> "max_capacitance")
              (Design.pin_name design v.Sta.drv_pin)
              v.Sta.drv_actual v.Sta.drv_limit)
          report.Sta.rep_drc;
        let worst = Sta.worst_setup_by_endpoint report in
        let sorted =
          List.sort (fun (_, a) (_, b) -> Float.compare a b) worst
        in
        List.iteri
          (fun i (pin, slack) ->
            if i < 10 then
              Printf.printf "  %-30s %+8.3f\n" (Design.pin_name design pin) slack)
          sorted;
        if paths > 0 then
          List.iter
            (fun p -> print_string (Sta.path_to_string design p))
            (Sta.worst_paths ~corner ~n:paths design mode))
      modes reports
  in
  cmd "sta"
    ~doc:"Run wire-load-model STA on each mode (slacks, DRC, worst paths)."
    Term.(
      const run $ design_term $ sdc_args $ paths_arg $ corner_arg $ policy_arg
      $ jobs_arg)

(* lint and relations: one context per mode file, in order; [f design]
   is the per-mode step. *)
let per_mode name ~doc f =
  cmd name ~doc
    Term.(
      const (fun design sdcs policy () ->
          let design = design () in
          let step = f design in
          List.iter
            (fun mode -> step mode (Context.create design mode))
            (load_modes ~policy design sdcs))
      $ design_term $ sdc_args $ policy_arg)

let lint_cmd =
  per_mode "lint" ~doc:"Constraint-quality checks for each mode."
    (fun _ mode ctx ->
      let findings = Mm_core.Lint.run ctx in
      Printf.printf "mode %s: %d finding(s)\n" mode.Mode.mode_name
        (List.length findings);
      if findings <> [] then begin
        warned := true;
        print_endline (Mm_core.Lint.to_string findings)
      end)

(* The modes sweep in turn through one tag store. *)
let relations_cmd =
  per_mode "relations"
    ~doc:"Print per-endpoint timing relationships (paper Table 1 style)."
    (fun design ->
      let scratch = Mm_timing.Tag.Store.create (Design.n_pins design) in
      fun mode ctx ->
        Mm_util.Tab.print
          ~title:
            (Printf.sprintf "Timing relationships of %s" mode.Mode.mode_name)
          (Mm_core.Report.relations_table design
             (Mm_core.Relation_prop.endpoint_relations ~scratch ctx)))

let check_cmd =
  let merged_arg =
    let doc = "The merged-mode SDC to validate." in
    Arg.(required & opt (some file) None & info [ "m"; "merged" ] ~doc)
  in
  let run design merged sdcs policy () =
    let design = design () in
    let merged_mode =
      match load_modes ~policy design [ merged ] with
      | [ m ] -> m
      | _ ->
        fatal ~loc:(Diag.loc merged) ~code:"check.no-merged-mode"
          "the merged mode was quarantined; nothing to check"
    in
    let individuals = load_modes ~policy design sdcs in
    let report =
      Mm_core.Equiv.check ~individual:individuals
        ~rename:(fun _mode clock -> clock)
        ~merged:merged_mode ()
    in
    Printf.printf "equivalent: %b (%d mismatches, %d unsound, %d pessimistic)\n"
      report.Mm_core.Equiv.equivalent report.Mm_core.Equiv.mismatches
      (List.length report.Mm_core.Equiv.unsound)
      (List.length report.Mm_core.Equiv.pessimistic);
    List.iter (Printf.printf "  %s\n") report.Mm_core.Equiv.unsound;
    List.iter (Printf.printf "  %s\n") report.Mm_core.Equiv.pessimistic;
    List.iter
      (fun (sp, ep) ->
        Printf.printf "  undecided: pass 3 ran out of budget on %s -> %s\n"
          (Mm_netlist.Design.pin_name design sp)
          (Mm_netlist.Design.pin_name design ep))
      report.Mm_core.Equiv.compare_result.Mm_core.Compare.undecided;
    if not report.Mm_core.Equiv.equivalent then
      fatal ~code:"merge.not-equivalent"
        "merged mode is not equivalent to the individual modes"
  in
  cmd "check"
    ~doc:
      "Equivalence-check a merged mode against individual modes (clock names \
       must already coincide)."
    Term.(const run $ design_term $ merged_arg $ sdc_args $ policy_arg)

let gen_cmd =
  let outdir =
    let doc = "Output directory." in
    Arg.(value & opt string "gen_out" & info [ "o"; "out" ] ~doc)
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.")
  in
  let domains =
    Arg.(value & opt positive_int 2 & info [ "domains" ] ~doc:"Clock domains.")
  in
  let regs =
    Arg.(
      value & opt non_negative_int 64
      & info [ "regs" ] ~doc:"Registers per domain.")
  in
  let families =
    Arg.(
      value
      & opt (list non_negative_int) [ 3; 2 ]
      & info [ "families" ] ~doc:"Modes per mergeable family, e.g. 3,2.")
  in
  let run outdir seed domains regs families () =
    let params =
      {
        Mm_workload.Gen_design.default_params with
        Mm_workload.Gen_design.seed;
        n_domains = domains;
        regs_per_domain = regs;
      }
    in
    let design, info = Mm_workload.Gen_design.generate params in
    make_dir outdir;
    let npath = Filename.concat outdir "design.nl" in
    writing npath (fun () -> Mm_netlist.Netlist_io.write_file npath design);
    let vpath = Filename.concat outdir "design.v" in
    writing vpath (fun () -> Mm_netlist.Verilog.write_file vpath design);
    let lpath = Filename.concat outdir "cells.lib" in
    writing lpath (fun () ->
        write_file lpath (Mm_netlist.Liberty.builtin_liberty ()));
    Printf.printf "wrote %s (+ design.v, cells.lib) (%s)\n" npath
      (Mm_netlist.Stats.to_string (Mm_netlist.Stats.of_design design));
    let suite =
      {
        Mm_workload.Gen_modes.sp_seed = seed + 1;
        families;
        base_period = 2.0;
        scan_family = true;
      }
    in
    List.iteri
      (fun family n ->
        for index = 0 to n - 1 do
          let sdc =
            Mm_workload.Gen_modes.sdc_of_mode_spec info suite ~family ~index
          in
          let path =
            Filename.concat outdir (Printf.sprintf "m%d_%d.sdc" family index)
          in
          writing path (fun () -> write_file path sdc);
          Printf.printf "wrote %s\n" path
        done)
      families
  in
  cmd "gen" ~doc:"Generate a synthetic design and mode suite."
    Term.(const run $ outdir $ seed $ domains $ regs $ families)

let () =
  (* Raw backtraces must be recorded for the pool's crash outcomes to
     carry real failure sites; chaos faults come from MM_CHAOS. *)
  Printexc.record_backtrace true;
  Mm_util.Chaos.configure_env ();
  let info =
    Cmd.info "modemerge" ~version:"1.0.0"
      ~doc:"Timing-graph based SDC mode merging (DAC'15 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            merge_cmd; explain_cmd; sta_cmd; relations_cmd; lint_cmd;
            check_cmd; gen_cmd;
          ]))
