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
   0 (clean), 1 (completed with warnings / findings), 2 (fatal) and
   3 (completed, but degraded under budget pressure — see --deadline /
   --budget / --task-timeout). --strict (default) fails fast on
   malformed input; --permissive recovers, quarantines broken modes
   and reports. *)

module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Resolve = Mm_sdc.Resolve
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

(* Catch stray IO failures from any subcommand body and route them
   through the exit-code convention instead of a backtrace. *)
let guard_io f =
  try f () with
  | Sys_error msg -> fatal ~code:"io.error" "%s" msg
  | Failure msg -> fatal ~code:"cli.failure" "%s" msg

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
  | Sys_error msg -> fatal ~code:"io.read" "%s" msg

let mode_name_of_path path = Filename.remove_extension (Filename.basename path)

let load_mode ~policy design path =
  let name = mode_name_of_path path in
  match policy with
  | Merge_flow.Permissive ->
    let r = Resolve.mode_of_file_robust design ~name path in
    print_diags r.Resolve.diags;
    r.Resolve.mode
  | Merge_flow.Strict -> (
    match Resolve.mode_of_file design ~name path with
    | r ->
      print_diags r.Resolve.diags;
      r.Resolve.mode
    | exception Mm_sdc.Parser.Error { loc; msg } ->
      fatal ?loc ~code:(Mm_sdc.Parser.error_code msg) "%s" msg
    | exception Mm_sdc.Lexer.Error { line; col; msg } ->
      fatal
        ~loc:{ Diag.file = path; line; col }
        ~code:(Mm_sdc.Parser.lex_code msg) "%s" msg
    | exception Sys_error msg -> fatal ~code:"io.read" "%s" msg)

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)

let netlist_arg =
  let doc = "Netlist file: .v structural Verilog or the .nl text format." in
  Arg.(required & opt (some file) None & info [ "n"; "netlist" ] ~doc)

let liberty_arg =
  let doc = "Liberty (.lib) file providing additional cells." in
  Arg.(value & opt (some file) None & info [ "liberty" ] ~doc)

let sdc_args =
  let doc = "SDC mode files." in
  Arg.(non_empty & pos_all file [] & info [] ~docv:"SDC" ~doc)

(* ------------------------------------------------------------------ *)
(* Observability: one flag set shared by every subcommand
   (--trace / --metrics / --profile / --profile-gc / --serve /
   --events / --progress)                                              *)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON file of the run's pipeline spans \
     (open in chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write a flat metrics JSON file: pipeline counters (e.g. \
     sta.tags_propagated, merge.cliques) plus per-stage span durations."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Print a per-stage profile tree (call counts, total/self wall time) \
     to stderr after the run, followed by a pool-utilization summary."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let profile_gc_arg =
  let doc =
    "Like $(b,--profile), with GC columns per stage: allocated words \
     (millions) and minor/major collection counts. Also adds gc.* \
     counter tracks to $(b,--trace) output."
  in
  Arg.(value & flag & info [ "profile-gc" ] ~doc)

let serve_arg =
  let doc =
    "Serve live telemetry over HTTP while the command runs: GET \
     /metrics (Prometheus text format), /healthz (governance state), \
     /progress (per-stage ETA), /events (recent journal as NDJSON), \
     /trace (Chrome trace of spans so far). $(docv) is PORT or \
     ADDR:PORT; the default address is 127.0.0.1, and port 0 asks the \
     OS for a free port. The bound endpoint is reported on stderr. \
     Serving is read-only: results are byte-identical with and without \
     it."
  in
  Arg.(
    value & opt (some string) None & info [ "serve" ] ~docv:"[ADDR:]PORT" ~doc)

let events_arg =
  let doc =
    "Write the structured event journal (stage boundaries, quarantines, \
     retries, clique splits, checkpoints, chaos injections) as \
     schema-versioned NDJSON on exit — including fatal exits and \
     SIGINT/SIGTERM."
  in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Render live per-stage progress (done/total with ETA) to stderr: an \
     in-place bar on a TTY, occasional plain lines on a pipe."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

type obs_opts = {
  oo_trace : string option;
  oo_metrics : string option;
  oo_profile : bool;
  oo_profile_gc : bool;
  oo_serve : string option;
  oo_events : string option;
  oo_progress : bool;
}

(* Every subcommand takes the identical observability flag set, so a
   flag learned on merge works verbatim on every other subcommand. *)
let obs_term =
  let mk trace metrics profile profile_gc serve events progress =
    {
      oo_trace = trace;
      oo_metrics = metrics;
      oo_profile = profile;
      oo_profile_gc = profile_gc;
      oo_serve = serve;
      oo_events = events;
      oo_progress = progress;
    }
  in
  Term.(
    const mk $ trace_arg $ metrics_arg $ profile_arg $ profile_gc_arg
    $ serve_arg $ events_arg $ progress_arg)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc contents;
      output_char oc '\n')

(* Drop one trailing newline (write_file adds its own). *)
let chomp s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

(* Span recording is off by default (it is the only part of the
   observability layer with a per-callsite cost); any flag whose
   exporter reads the span sink turns it on — including --serve, whose
   /trace endpoint streams the spans recorded so far.

   All exports run through one idempotent flush, registered both with
   at_exit (covers clean, warn, fatal and uncaught-exception exits) and
   with SIGINT/SIGTERM handlers: the default dispositions kill the
   process without running at_exit, which used to lose every pending
   trace/metrics file on Ctrl-C. The handlers route through
   Stdlib.exit with the conventional 128+signal codes, so an
   interrupted run still leaves a valid (partial) trace and event
   dump. *)
let obs_setup o =
  if
    o.oo_trace <> None || o.oo_metrics <> None || o.oo_profile
    || o.oo_profile_gc || o.oo_serve <> None
  then Obs.set_enabled true;
  if o.oo_profile_gc then Obs.set_gc_enabled true;
  if o.oo_progress then Mm_util.Progress.set_render true;
  let server =
    Option.map
      (fun spec ->
        match Mm_util.Serve.parse_spec spec with
        | Error msg -> fatal ~code:"cli.serve" "--serve %s" msg
        | Ok (addr, port) -> (
          match Mm_util.Serve.start ~addr ~port () with
          | srv ->
            Printf.eprintf "serving telemetry on http://%s:%d/\n%!"
              (Mm_util.Serve.addr srv) (Mm_util.Serve.port srv);
            srv
          | exception Failure msg -> fatal ~code:"cli.serve" "%s" msg))
      o.oo_serve
  in
  let flushed = ref false in
  let flush_exports () =
    if not !flushed then begin
      flushed := true;
      Mm_util.Progress.render_finish ();
      Option.iter (fun p -> write_file p (Obs.trace_event_json ())) o.oo_trace;
      Option.iter (fun p -> write_file p (Obs.metrics_json ())) o.oo_metrics;
      Option.iter
        (fun p -> write_file p (chomp (Mm_util.Eventlog.to_ndjson ())))
        o.oo_events;
      if o.oo_profile || o.oo_profile_gc then begin
        prerr_string (Obs.profile_tree ~gc:o.oo_profile_gc ());
        prerr_string (Mm_util.Pool.utilization_report ())
      end;
      Option.iter Mm_util.Serve.stop server
    end
  in
  at_exit flush_exports;
  let on_signal signum =
    let name, code =
      if signum = Sys.sigterm then "SIGTERM", 143 else "SIGINT", 130
    in
    Mm_util.Eventlog.log "run.signal" ~attrs:[ "signal", name ];
    Stdlib.exit code
  in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
  with Invalid_argument _ | Sys_error _ -> ()

let jobs_arg =
  let doc =
    "Number of worker domains for the parallel pipeline stages (mode \
     loading, mergeability checks, per-clique merges, STA sweeps). \
     Defaults to $(b,MM_JOBS) or the hardware's recommended domain \
     count; 1 runs fully sequentially. Results are identical for any \
     value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

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
   --retries / --mem-limit-mb, and crash-safe --checkpoint/--resume.   *)

let deadline_arg =
  let doc =
    "Global wall-clock deadline in seconds. When it expires, in-flight \
     work is cancelled cooperatively and the run degrades (permissive) \
     or aborts (strict)."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SEC" ~doc)

let budget_arg =
  let doc =
    Printf.sprintf
      "Per-stage budget in seconds, repeatable: $(b,--budget \
       cliques=2.5). Stages: %s."
      (String.concat ", " Merge_flow.stage_names)
  in
  Arg.(
    value
    & opt_all (pair ~sep:'=' string float) []
    & info [ "budget" ] ~docv:"STAGE=SEC" ~doc)

let task_timeout_arg =
  let doc =
    "Per-task timeout in seconds (one mode load, probe, pair check or \
     clique merge). A timed-out task is retried with backoff, then \
     walks the degradation ladder (split, quarantine)."
  in
  Arg.(
    value & opt (some float) None & info [ "task-timeout" ] ~docv:"SEC" ~doc)

let retries_arg =
  let doc =
    "Total attempts per governed task, including the first (default 3)."
  in
  Arg.(value & opt (some int) None & info [ "retries" ] ~docv:"N" ~doc)

let mem_limit_arg =
  let doc =
    "Process heap watermark in MiB; exceeding it cancels in-flight work \
     cooperatively instead of risking an OOM kill."
  in
  Arg.(value & opt (some float) None & info [ "mem-limit-mb" ] ~docv:"MB" ~doc)

let checkpoint_arg =
  let doc =
    "Persist each completed pipeline stage to this directory; a killed \
     run restarted with $(b,--resume) continues from the last completed \
     stage with byte-identical output."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "Reuse completed stages from the $(b,--checkpoint) directory when \
     its fingerprint matches the current inputs and options."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let budgets_of ~deadline ~stage_budgets ~task_timeout ~retries ~mem_limit =
  List.iter
    (fun (stage, _) ->
      if not (List.mem stage Merge_flow.stage_names) then
        fatal ~code:"cli.budget" "unknown --budget stage %S (stages: %s)" stage
          (String.concat ", " Merge_flow.stage_names))
    stage_budgets;
  {
    Merge_flow.bg_deadline_s = deadline;
    bg_stage_s = stage_budgets;
    bg_task_s = task_timeout;
    bg_retry =
      (match retries with
      | None -> Govern.default_retry
      | Some n -> { Govern.default_retry with Govern.max_attempts = max 1 n });
    bg_mem_limit_mb = mem_limit;
  }

let checkpoint_spec_of ~checkpoint ~resume ~netlist =
  match checkpoint with
  | None ->
    if resume then
      fatal ~code:"cli.resume" "--resume requires --checkpoint DIR";
    None
  | Some dir ->
    Some
      { Merge_flow.ck_dir = dir; ck_resume = resume; ck_key = netlist }

(* Shared by merge and explain: run the flow with parser/lexer errors
   routed through the exit-code convention. *)
let run_flow ?check_equivalence ~policy ?jobs ?budgets ?checkpoint ~design sdcs
    =
  match
    Merge_flow.run_files ?check_equivalence ~policy ?jobs ?budgets ?checkpoint
      ~design sdcs
  with
  | r ->
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
    r
  | exception Mm_sdc.Parser.Error { loc; msg } ->
    fatal ?loc ~code:(Mm_sdc.Parser.error_code msg) "%s" msg
  | exception Mm_sdc.Lexer.Error { line; col; msg } ->
    fatal
      ~loc:{ Diag.file = "<sdc>"; line; col }
      ~code:(Mm_sdc.Parser.lex_code msg) "%s" msg
  | exception Govern.Cancelled reason ->
    fatal ~code:(Govern.reason_code reason) "%s"
      (Govern.reason_to_string reason)

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
  let run netlist liberty sdcs outdir policy jobs diag_json audit annotate dot
      obs deadline stage_budgets task_timeout retries mem_limit checkpoint
      resume =
    guard_io @@ fun () ->
    obs_setup obs;
    let budgets =
      budgets_of ~deadline ~stage_budgets ~task_timeout ~retries ~mem_limit
    in
    let checkpoint = checkpoint_spec_of ~checkpoint ~resume ~netlist in
    let design = read_design ?liberty netlist in
    let result = run_flow ~policy ?jobs ~budgets ?checkpoint ~design sdcs in
    print_diags result.Merge_flow.diags;
    List.iter
      (fun (q : Merge_flow.quarantined) ->
        print_diags q.Merge_flow.q_diags;
        print_diag
          (Diag.makef Diag.Warning ~code:"merge.quarantined"
             "mode %s quarantined at %s stage; merged without it"
             q.Merge_flow.q_name
             (Merge_flow.stage_to_string q.Merge_flow.q_stage)))
      result.Merge_flow.quarantined;
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
        Mm_core.Audit.write path result;
        Printf.printf "audit report -> %s\n" path)
      audit;
    if not (Sys.file_exists outdir) then Sys.mkdir outdir 0o755;
    if dot then begin
      (* Rebuild the individual sides to attribute clock-network edges;
         quarantined modes simply contribute no side. *)
      let by_name = Hashtbl.create 8 in
      List.iter
        (fun path ->
          match load_mode ~policy design path with
          | m -> Hashtbl.replace by_name m.Mode.mode_name m
          | exception _ -> ())
        sdcs;
      List.iteri
        (fun i (g : Merge_flow.group) ->
          let sides =
            List.filter_map
              (fun name ->
                match Hashtbl.find_opt by_name name with
                | None -> None
                | Some m ->
                  Some
                    {
                      Mm_timing.Dot.side_name = name;
                      side_ctx = Context.create design m;
                      side_rename =
                        Mm_core.Prelim.rename_of g.Merge_flow.grp_prelim name;
                    })
              g.Merge_flow.grp_members
          in
          let ctx = Context.create design g.Merge_flow.grp_mode in
          let path = Filename.concat outdir (Printf.sprintf "merged_%d.dot" i) in
          Mm_timing.Dot.write path ~individual:sides ~clock_network_only:true
            ctx;
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
    let files = Merge_flow.merged_files ~annotate result in
    List.iteri
      (fun i ((g : Merge_flow.group), rep) ->
        let name, text = List.nth files i in
        let path = Filename.concat outdir name in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc text);
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
      (List.combine result.Merge_flow.groups reports);
    if
      List.exists
        (fun (g : Merge_flow.group) ->
          match g.Merge_flow.grp_equiv with
          | Some e -> not e.Mm_core.Equiv.equivalent
          | None -> false)
        result.Merge_flow.groups
    then begin
      print_diag
        (Diag.make Diag.Fatal ~code:"merge.not-equivalent"
           "a merged mode failed the equivalence check");
      exit exit_fatal
    end;
    finish ()
  in
  let info =
    Cmd.info "merge" ~doc:"Merge SDC timing modes into superset modes."
  in
  Cmd.v info
    Term.(
      const run $ netlist_arg $ liberty_arg $ sdc_args $ outdir $ policy_arg
      $ jobs_arg $ diag_json $ audit_arg $ annotate_arg $ dot_arg $ obs_term
      $ deadline_arg $ budget_arg $ task_timeout_arg $ retries_arg
      $ mem_limit_arg $ checkpoint_arg $ resume_arg)

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
  let run netlist liberty sdcs policy jobs line id pr obs =
    guard_io @@ fun () ->
    obs_setup obs;
    let design = read_design ?liberty netlist in
    (* The merge is re-run to rebuild lineage; ids are stable across
       runs and --jobs values, so an id taken from an audit file or an
       annotated SDC resolves here. Equivalence checking is skipped —
       explain only needs the lineage. *)
    let result = run_flow ~check_equivalence:false ~policy ?jobs ~design sdcs in
    let explain_entries found =
      List.iter
        (fun (scope, e) ->
          Printf.printf "[%s]\n%s\n" scope (Mm_util.Prov.explain_entry e))
        found
    in
    let explained = ref false in
    Option.iter
      (fun line ->
        explained := true;
        let found =
          List.concat_map
            (fun (g : Merge_flow.group) ->
              List.map
                (fun e -> Mm_util.Prov.scope g.Merge_flow.grp_prov, e)
                (Mm_util.Prov.find_line g.Merge_flow.grp_prov line))
            result.Merge_flow.groups
        in
        if found = [] then begin
          warned := true;
          Printf.printf "no merged constraint matches: %s\n" (String.trim line)
        end
        else explain_entries found)
      line;
    Option.iter
      (fun id ->
        explained := true;
        let found =
          List.filter_map
            (fun (g : Merge_flow.group) ->
              Option.map
                (fun e -> Mm_util.Prov.scope g.Merge_flow.grp_prov, e)
                (Mm_util.Prov.find_id g.Merge_flow.grp_prov id))
            result.Merge_flow.groups
        in
        if found = [] then begin
          warned := true;
          Printf.printf "no constraint with id %s\n" id
        end
        else explain_entries found)
      id;
    Option.iter
      (fun (a, b) ->
        explained := true;
        let m = result.Merge_flow.mergeability in
        let names = m.Mm_core.Mergeability.mode_names in
        let index_of n = Array.to_list names |> List.find_index (( = ) n) in
        match index_of a, index_of b with
        | Some i, Some j when i <> j ->
          let i, j = if i < j then i, j else j, i in
          if m.Mm_core.Mergeability.adjacency.(i).(j) then
            Printf.printf "%s and %s are mergeable\n" names.(i) names.(j)
          else begin
            let reasons =
              Option.value ~default:[]
                (Hashtbl.find_opt m.Mm_core.Mergeability.pair_reasons (i, j))
            in
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
    if not !explained then
      (* No query: dump the full lineage of every merged mode. *)
      List.iter
        (fun (g : Merge_flow.group) ->
          List.iter
            (fun e -> Printf.printf "%s\n" (Mm_util.Prov.explain_entry e))
            (Mm_util.Prov.entries g.Merge_flow.grp_prov))
        result.Merge_flow.groups;
    finish ()
  in
  let info =
    Cmd.info "explain"
      ~doc:
        "Explain the lineage of merged constraints: which rule produced a \
         constraint from which source modes, or why a mode pair did not \
         merge."
  in
  Cmd.v info
    Term.(
      const run $ netlist_arg $ liberty_arg $ sdc_args $ policy_arg $ jobs_arg
      $ line_arg $ id_arg $ pair_arg $ obs_term)

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
  let run netlist liberty sdcs paths corner policy jobs obs =
    guard_io @@ fun () ->
    obs_setup obs;
    let design = read_design ?liberty netlist in
    let modes = List.map (load_mode ~policy design) sdcs in
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
      modes reports;
    finish ()
  in
  let info =
    Cmd.info "sta"
      ~doc:"Run wire-load-model STA on each mode (slacks, DRC, worst paths)."
  in
  Cmd.v info
    Term.(
      const run $ netlist_arg $ liberty_arg $ sdc_args $ paths_arg $ corner_arg
      $ policy_arg $ jobs_arg $ obs_term)

let lint_cmd =
  let run netlist liberty sdcs policy obs =
    guard_io @@ fun () ->
    obs_setup obs;
    let design = read_design ?liberty netlist in
    let dirty = ref false in
    List.iter
      (fun path ->
        let mode = load_mode ~policy design path in
        let ctx = Context.create design mode in
        let findings = Mm_core.Lint.run ctx in
        Printf.printf "mode %s: %d finding(s)\n" mode.Mode.mode_name
          (List.length findings);
        if findings <> [] then begin
          dirty := true;
          print_endline (Mm_core.Lint.to_string findings)
        end)
      sdcs;
    if !dirty then exit exit_warn;
    finish ()
  in
  let info =
    Cmd.info "lint" ~doc:"Constraint-quality checks for each mode."
  in
  Cmd.v info
    Term.(
      const run $ netlist_arg $ liberty_arg $ sdc_args $ policy_arg $ obs_term)

let relations_cmd =
  let run netlist liberty sdcs policy obs =
    guard_io @@ fun () ->
    obs_setup obs;
    let design = read_design ?liberty netlist in
    List.iter
      (fun path ->
        let mode = load_mode ~policy design path in
        let ctx = Context.create design mode in
        let rels = Mm_core.Relation_prop.endpoint_relations ctx in
        Mm_util.Tab.print
          ~title:(Printf.sprintf "Timing relationships of %s" mode.Mode.mode_name)
          (Mm_core.Report.relations_table design rels))
      sdcs;
    finish ()
  in
  let info =
    Cmd.info "relations"
      ~doc:"Print per-endpoint timing relationships (paper Table 1 style)."
  in
  Cmd.v info
    Term.(
      const run $ netlist_arg $ liberty_arg $ sdc_args $ policy_arg $ obs_term)

let check_cmd =
  let merged_arg =
    let doc = "The merged-mode SDC to validate." in
    Arg.(required & opt (some file) None & info [ "m"; "merged" ] ~doc)
  in
  let run netlist liberty merged sdcs policy obs =
    guard_io @@ fun () ->
    obs_setup obs;
    let design = read_design ?liberty netlist in
    let merged_mode = load_mode ~policy design merged in
    let individuals = List.map (load_mode ~policy design) sdcs in
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
    if not report.Mm_core.Equiv.equivalent then begin
      print_diag
        (Diag.make Diag.Fatal ~code:"merge.not-equivalent"
           "merged mode is not equivalent to the individual modes");
      exit exit_fatal
    end;
    finish ()
  in
  let info =
    Cmd.info "check"
      ~doc:
        "Equivalence-check a merged mode against individual modes (clock \
         names must already coincide)."
  in
  Cmd.v info
    Term.(
      const run $ netlist_arg $ liberty_arg $ merged_arg $ sdc_args $ policy_arg
      $ obs_term)

let gen_cmd =
  let outdir =
    let doc = "Output directory." in
    Arg.(value & opt string "gen_out" & info [ "o"; "out" ] ~doc)
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.")
  in
  let domains =
    Arg.(value & opt int 2 & info [ "domains" ] ~doc:"Clock domains.")
  in
  let regs =
    Arg.(value & opt int 64 & info [ "regs" ] ~doc:"Registers per domain.")
  in
  let families =
    Arg.(
      value
      & opt (list int) [ 3; 2 ]
      & info [ "families" ] ~doc:"Modes per mergeable family, e.g. 3,2.")
  in
  let run outdir seed domains regs families obs =
    guard_io @@ fun () ->
    obs_setup obs;
    let params =
      {
        Mm_workload.Gen_design.default_params with
        Mm_workload.Gen_design.seed;
        n_domains = domains;
        regs_per_domain = regs;
      }
    in
    let design, info = Mm_workload.Gen_design.generate params in
    if not (Sys.file_exists outdir) then Sys.mkdir outdir 0o755;
    let npath = Filename.concat outdir "design.nl" in
    Mm_netlist.Netlist_io.write_file npath design;
    Mm_netlist.Verilog.write_file (Filename.concat outdir "design.v") design;
    let oc = open_out (Filename.concat outdir "cells.lib") in
    output_string oc (Mm_netlist.Liberty.builtin_liberty ());
    close_out oc;
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
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc sdc);
          Printf.printf "wrote %s\n" path
        done)
      families;
    finish ()
  in
  let info =
    Cmd.info "gen" ~doc:"Generate a synthetic design and mode suite."
  in
  Cmd.v info
    Term.(const run $ outdir $ seed $ domains $ regs $ families $ obs_term)

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
