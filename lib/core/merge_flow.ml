module Mode = Mm_sdc.Mode
module Resolve = Mm_sdc.Resolve
module Stat = Mm_util.Stat
module Diag = Mm_util.Diag
module Obs = Mm_util.Obs
module Metrics = Mm_util.Metrics
module Pool = Mm_util.Pool
module Govern = Mm_util.Govern
module Ctx_cache = Mm_timing.Ctx_cache

type policy = Strict | Permissive

type stage = Load | Probe | Merge

let stage_to_string = function
  | Load -> "load"
  | Probe -> "probe"
  | Merge -> "merge"

type quarantined = { q_name : string; q_stage : stage; q_diags : Diag.t list }

type group = {
  grp_members : string list;
  grp_prelim : Prelim.t;
  grp_refine : Refine.t option;
  grp_equiv : Equiv.report option;
  grp_mode : Mode.t;
  grp_prov : Mm_util.Prov.store;
}

(* ------------------------------------------------------------------ *)
(* Resource governance types                                           *)

type budgets = {
  bg_deadline_s : float option;
  bg_stage_s : (string * float) list;
  bg_task_s : float option;
  bg_mem_limit_mb : float option;
}

let default_budgets =
  {
    bg_deadline_s = None;
    bg_stage_s = [];
    bg_task_s = None;
    bg_mem_limit_mb = None;
  }

let stage_names = [ "load"; "mergeability"; "cliques" ]

type govern_event = {
  ge_stage : string;
  ge_scope : string;
  ge_action : string;
  ge_detail : string;
}

type governed = {
  gov_clique_splits : int;
  gov_budget_quarantines : int;
  gov_conservative_pairs : int;
  gov_deadline_hit : bool;
  gov_events : govern_event list;
}

let empty_governed =
  {
    gov_clique_splits = 0;
    gov_budget_quarantines = 0;
    gov_conservative_pairs = 0;
    gov_deadline_hit = false;
    gov_events = [];
  }

let degraded_under_budget g =
  g.gov_clique_splits > 0 || g.gov_budget_quarantines > 0
  || g.gov_conservative_pairs > 0

type result = {
  modes : Mode.t list;
  groups : group list;
  mergeability : Mergeability.t;
  quarantined : quarantined list;
  degraded : string list list;
  diags : Diag.t list;
  n_individual : int;
  n_merged : int;
  reduction_percent : float;
  runtime_s : float;
  governed : governed;
  coverage : (string * int) list;
}

(* Counters only, which the parallel-stress contract keeps identical
   across --jobs values; gauges and timings would make the audit's
   coverage section jobs-dependent. *)
let coverage_counters =
  [
    "compare.endpoints_visited";
    "compare.endpoints_pruned";
    "compare.pairs_compared";
    "compare.reconv_points";
    "merge.pairs_checked";
    "merge.cliques";
  ]

let exn_diag ~code ~name exn =
  Diag.makef ~loc:(Diag.loc name) Diag.Error ~code "%s: %s" name
    (Printexc.to_string exn)

let interrupt_diag ~name r =
  Diag.makef ~loc:(Diag.loc name) Diag.Error ~code:(Govern.reason_code r)
    "%s abandoned under resource governance: %s" name
    (Govern.reason_to_string r)

(* All-singleton fallback when the mergeability analysis itself dies in
   permissive mode: no edges, every mode its own clique. *)
let degenerate_mergeability modes =
  let n = List.length modes in
  {
    Mergeability.mode_names =
      Array.of_list (List.map (fun m -> m.Mode.mode_name) modes);
    adjacency = Array.make_matrix n n false;
    cliques = List.init n (fun i -> [ i ]);
    pair_reasons = Hashtbl.create 1;
  }

(* Groups keep their prelim without its merged context, and their
   refinement without its refined context: nothing later reads them,
   and they would pin a context's arrays for the rest of the run. *)
let without_ctx (prelim : Prelim.t) = { prelim with Prelim.merged_ctx = None }

let singleton_group ~ctx_cache (single : Mode.t) =
  let prelim =
    Prelim.merge ~ctx_cache ~name:single.Mode.mode_name [ single ]
  in
  {
    grp_members = [ single.Mode.mode_name ];
    grp_prelim = without_ctx prelim;
    grp_refine = None;
    grp_equiv = None;
    grp_mode = single;
    grp_prov = Provenance.of_single single;
  }

let merged_group ~check_equivalence ~ctx_cache ~name members =
  let prelim = Prelim.merge ~ctx_cache ~name members in
  let refine = Refine.run ~ctx_cache ~prelim ~individual:members () in
  let mode = refine.Refine.refined in
  (* Refinement's final comparison already compared [mode] against
     every member: the verdict is read from it, not recomputed. *)
  let equiv =
    if check_equivalence then
      Some
        (Mm_util.Obs.with_span
           ~attrs:[ "merged", mode.Mode.mode_name ]
           "merge.equiv"
           (fun () -> Equiv.of_compare refine.Refine.final_compare))
    else None
  in
  {
    grp_members = List.map (fun (m : Mode.t) -> m.Mode.mode_name) members;
    grp_prelim = without_ctx prelim;
    grp_refine = Some { refine with Refine.refined_ctx = None };
    grp_equiv = equiv;
    grp_mode = mode;
    grp_prov =
      Provenance.of_group ~members ~prelim ~refine:(Some refine) ~mode;
  }

(* ------------------------------------------------------------------ *)
(* Cumulative pipeline state

   One record carries everything the pipeline has decided so far. Each
   stage maps it to the next; the list fields accumulate newest first. *)

type state = {
  s_modes : Mode.t list; (* modes still in the merge, analysis order *)
  s_probed : (string * group) list; (* memoized singleton groups *)
  s_matrix : Mergeability.t;
  s_groups : group list;
  s_quar : quarantined list;
  s_degraded : string list list;
  s_diags : Diag.t list;
  s_gov : governed; (* gov_events newest first *)
}

let initial modes =
  {
    s_modes = modes;
    s_probed = [];
    s_matrix = degenerate_mergeability [];
    s_groups = [];
    s_quar = [];
    s_degraded = [];
    s_diags = [];
    s_gov = empty_governed;
  }

(* Record one outcome-affecting governance decision; [count] bumps the
   matching [governed] counter. *)
let decide st ~count ~stage ~scope ~action ~detail =
  let ev =
    { ge_stage = stage; ge_scope = scope; ge_action = action;
      ge_detail = detail }
  in
  let g = st.s_gov in
  { st with s_gov = count { g with gov_events = ev :: g.gov_events } }

(* Only a deadline counts: memory pressure also expires a token but is
   not a deadline hit. *)
let note_deadline tok st =
  match Govern.cancelled tok with
  | Some (Govern.Deadline_exceeded _) ->
    { st with s_gov = { st.s_gov with gov_deadline_hit = true } }
  | _ -> st

(* The pipeline stage each kind of quarantine happens in. *)
let stage_key = function
  | Load -> "load"
  | Probe -> "mergeability"
  | Merge -> "cliques"

(* The one way a mode leaves the pipeline, whatever the cause (parse
   failure, unreadable file, crash, blown budget): counted, journalled
   once, and kept with its diagnostics. *)
let quarantine q_stage name diags =
  Metrics.incr "merge.quarantined";
  Obs.event "merge.quarantined"
    ~attrs:[ "stage", stage_key q_stage; "mode", name ];
  { q_name = name; q_stage; q_diags = diags }

let quarantine_into st q_stage name diags =
  { st with s_quar = quarantine q_stage name diags :: st.s_quar }

(* The one place a task outcome is settled. A finished task goes to
   [ok]. A task that crashed or was interrupted (at entry or at a
   checkpoint inside) has its blown budget counted once, then under
   [Strict] propagates through [Govern.value] (a crash with its original
   backtrace, an expired budget as [Govern.Cancelled]) and under
   [Permissive] goes to [failed], the degradation ladder for that kind
   of task. *)
let settle ~policy ~ok ~failed (o : _ Govern.outcome) =
  match o with
  | Govern.Done v -> ok v
  | o -> (
    (match o with
    | Govern.Interrupted (Govern.Deadline_exceeded _) ->
      Metrics.incr "govern.timeouts"
    | Govern.Interrupted (Govern.Memory_watermark _) ->
      Metrics.incr "govern.mem_trips"
    | _ -> ());
    match policy with
    | Strict -> ok (Govern.value o)
    | Permissive -> failed o)

(* Permissive ladder for a load, probe or single-mode clique task that
   did not finish: quarantine the mode. A crash reports its exception;
   a blown budget reports the governance reason and is also a
   governance decision. *)
let quarantine_failed st q_stage name (o : _ Govern.outcome) =
  match o with
  | Govern.Done _ -> st
  | Govern.Crashed { exn; _ } ->
    quarantine_into st q_stage name
      [ exn_diag ~code:"merge.mode-failed" ~name exn ]
  | Govern.Interrupted r ->
    let st =
      decide st
        ~count:(fun g ->
          { g with gov_budget_quarantines = g.gov_budget_quarantines + 1 })
        ~stage:(stage_key q_stage) ~scope:name ~action:"quarantine"
        ~detail:(Govern.reason_to_string r)
    in
    quarantine_into st q_stage name [ interrupt_diag ~name r ]

(* ------------------------------------------------------------------ *)
(* Task values

   Every pipeline stage is expressed as a batch of pure tasks whose
   outcomes the driver folds in input order, so the result is
   byte-identical whether the batch ran on one domain or many. Tasks
   never touch shared mutable state: each gets a {!Ctx_cache.fork} of
   the run's cache, and quarantines/degradations/diagnostics travel in
   the outcome value instead of being pushed into shared refs. *)

(* Outcome of one stage-3 clique task. *)
type task_out = {
  tk_groups : group list;
  tk_degraded : string list list;
  tk_diags : Diag.t list;
}

(* Permissive stage-1 task: probe one mode's singleton merge (context
   construction + clock propagation). A mode that cannot even stand
   alone is quarantined before it can poison the pairwise analysis.
   The probe's group is kept — stage 3 reuses it for singleton cliques
   and degraded members instead of merging the mode a second time. *)
let probe_task ~ctx_cache (m : Mode.t) =
  singleton_group ~ctx_cache:(Ctx_cache.fork ctx_cache) m

(* Permissive fallback for a clique whose merge crashed or failed the
   equivalence check: keep its modes individual ("when in doubt, don't
   merge"). Under [Permissive] every mode that reaches stage 3 passed
   the probe, so each member's singleton group is in [probed]. *)
let degrade ~probed members reason =
  let names = List.map (fun (m : Mode.t) -> m.Mode.mode_name) members in
  {
    tk_groups = List.map (fun n -> List.assoc n probed) names;
    tk_degraded = [ names ];
    tk_diags =
      [
        Diag.makef Diag.Warning ~code:"merge.group-degraded"
          "group [%s] kept as individual modes: %s" (String.concat ", " names)
          reason;
      ];
  }

(* Stage-3 task: merge one clique. [probed] holds the memoized
   singleton groups from stage 1 (empty under [Strict]). [name] is the
   merged mode's name — [merged_<gi>] for top-level cliques,
   [merged_<gi>_s<k>...] for the halves of a budget split. *)
let clique_task ~check_equivalence ~policy ~probed ~ctx_cache ~name
    members =
  let ctx_cache = Ctx_cache.fork ctx_cache in
  let ok g = { tk_groups = [ g ]; tk_degraded = []; tk_diags = [] } in
  Obs.with_span "merge.group"
    ~attrs:
      [
        "members",
        String.concat ","
          (List.map (fun (m : Mode.t) -> m.Mode.mode_name) members);
      ]
  @@ fun () ->
  match members with
  | [ single ] -> (
    match List.assoc_opt single.Mode.mode_name probed with
    | Some g -> ok g
    | None -> ok (singleton_group ~ctx_cache single))
  | _ -> (
    let g =
      merged_group ~check_equivalence ~ctx_cache ~name members
    in
    match policy, g.grp_equiv with
    | Permissive, Some e when not e.Equiv.equivalent ->
      degrade ~probed members
        (Printf.sprintf
           "merged mode failed the equivalence check (%d mismatches)"
           e.Equiv.mismatches)
    | _ -> ok g)

let stage_token ~budgets root name =
  Govern.sub
    ~scope:("merge." ^ name)
    ?budget_s:(List.assoc_opt name budgets.bg_stage_s)
    root

(* Run one pipeline stage between its [stage.start]/[stage.finish]
   events. *)
let staged ~stage compute =
  Obs.event "stage.start" ~attrs:[ "stage", stage ];
  let v = compute () in
  Obs.event "stage.finish" ~attrs:[ "stage", stage ];
  v

(* ------------------------------------------------------------------ *)
(* Stage computes                                                      *)

let compute_matrix ~policy ~pool ~budgets ~ctx_cache ~root st =
  let tok = stage_token ~budgets root "mergeability" in
  (* Stage 1 (permissive): per-mode probe tasks. *)
  let st =
    match policy with
    | Strict -> st
    | Permissive ->
      let outs =
        Pool.map_outcome pool ~govern:tok ?task_budget_s:budgets.bg_task_s
          (probe_task ~ctx_cache)
          st.s_modes
      in
      let st =
        List.fold_left2
          (fun st (m : Mode.t) out ->
            let name = m.Mode.mode_name in
            settle ~policy out
              ~ok:(fun g ->
                {
                  st with
                  s_modes = m :: st.s_modes;
                  s_probed = (name, g) :: st.s_probed;
                })
              ~failed:(quarantine_failed st Probe name))
          { st with s_modes = [] } st.s_modes outs
      in
      { st with s_modes = List.rev st.s_modes }
  in
  (* Stage 2: mergeability graph + clique cover (pairwise checks are
     pool tasks inside [Mergeability.analyze], settled here). Declining
     an edge only costs reduction, never the paper's inclusion
     guarantee, so a pair check that did not finish is conservatively
     treated as not mergeable. *)
  let conservative = ref 0 in
  let settle_pair ~scope:_ o =
    settle ~policy o ~ok:Fun.id ~failed:(fun failed ->
        incr conservative;
        Metrics.incr "govern.conservative_pairs";
        {
          Mergeability.mergeable = false;
          reasons =
            [
              Mergeability.note
                (Printf.sprintf
                   "governance: pair check abandoned (%s); conservatively \
                    treated as not mergeable"
                   (Govern.failure_to_string failed));
            ];
        })
  in
  let st =
    match
      Mergeability.analyze ~ctx_cache ~pool ~govern:tok
        ?task_budget_s:budgets.bg_task_s ~settle:settle_pair st.s_modes
    with
    | matrix -> { st with s_matrix = matrix }
    | exception exn when policy = Permissive ->
      let diag =
        Diag.makef Diag.Error ~code:"merge.analysis-failed"
          "mergeability analysis failed (%s); keeping all modes individual"
          (Printexc.to_string exn)
      in
      {
        st with
        s_matrix = degenerate_mergeability st.s_modes;
        s_diags = diag :: st.s_diags;
      }
  in
  let st =
    if !conservative = 0 then st
    else begin
      let n = !conservative in
      Obs.event "govern.conservative"
        ~attrs:[ "stage", "mergeability"; "pairs", string_of_int n ];
      decide st
        ~count:(fun g ->
          { g with gov_conservative_pairs = g.gov_conservative_pairs + n })
        ~stage:"mergeability" ~scope:"pairs" ~action:"conservative"
        ~detail:
          (Printf.sprintf
             "%d pair checks abandoned under budget; treated as not mergeable"
             n)
    end
  in
  Metrics.incr
    ~by:(List.length st.s_matrix.Mergeability.cliques)
    "merge.cliques";
  note_deadline tok st

(* Fold one clique task's outcome into the state. *)
let absorb st t =
  Metrics.incr ~by:(List.length t.tk_degraded) "merge.degraded_cliques";
  List.iter
    (fun members ->
      Obs.event "merge.degraded"
        ~attrs:[ "stage", "cliques"; "modes", String.concat "," members ])
    t.tk_degraded;
  {
    st with
    s_groups = List.rev_append t.tk_groups st.s_groups;
    s_degraded = List.rev_append t.tk_degraded st.s_degraded;
    s_diags = List.rev_append t.tk_diags st.s_diags;
  }

let compute_cliques ~check_equivalence ~policy ~pool ~budgets
    ~ctx_cache ~root st =
  let tok = stage_token ~budgets root "cliques" in
  let cliques = Mergeability.clique_modes st.s_matrix st.s_modes in
  let named =
    List.mapi (fun gi members -> Printf.sprintf "merged_%d" gi, members) cliques
  in
  let task (name, members) =
    clique_task ~check_equivalence ~policy ~probed:st.s_probed
      ~ctx_cache ~name members
  in
  (* Stage 3: per-clique merge tasks, folded in clique order. *)
  let outs =
    Obs.with_span
      ~attrs:[ "cliques", string_of_int (List.length named) ]
      "merge.clique_sweep"
    @@ fun () ->
    Pool.map_outcome pool ~govern:tok ?task_budget_s:budgets.bg_task_s task
      named
  in
  (* Permissive ladder for a clique task that did not finish. A crashed
     clique keeps its modes individual. An interrupted one is split in
     half and the halves merged under their own budgets (recursively,
     down to singletons), then what still does not fit is quarantined.
     Splitting only forfeits reduction — every surviving half is a
     normal merged group with the full refine/equivalence treatment —
     so the paper's inclusion guarantee is preserved. *)
  let rec resolve st (name, members) out =
    settle ~policy out ~ok:(absorb st) ~failed:(fun o ->
        match members, o with
        | [ (m : Mode.t) ], _ -> (
          match o, List.assoc_opt m.Mode.mode_name st.s_probed with
          | Govern.Interrupted _, Some g ->
            (* The probe already computed this mode's singleton group;
               reusing it is byte-identical to the un-interrupted task. *)
            { st with s_groups = g :: st.s_groups }
          | _ -> quarantine_failed st Merge m.Mode.mode_name o)
        | _, Govern.Crashed { exn; _ } ->
          absorb st
            (degrade ~probed:st.s_probed members
               (Printf.sprintf "merge failed with %s" (Printexc.to_string exn)))
        | _ ->
          let why = Govern.failure_to_string o in
          Metrics.incr "govern.clique_splits";
          Obs.event "govern.clique_split"
            ~attrs:
              [ "clique", name;
                "members", string_of_int (List.length members);
                "why", why ];
          let st =
            decide st
              ~count:(fun g ->
                { g with gov_clique_splits = g.gov_clique_splits + 1 })
              ~stage:"cliques" ~scope:name ~action:"split" ~detail:why
          in
          let diag =
            Diag.makef Diag.Warning ~code:"govern.clique-split"
              "clique %s split under budget pressure: %s" name why
          in
          let k = (List.length members + 1) / 2 in
          let half st i mem =
            let nm = Printf.sprintf "%s_s%d" name i in
            let t2 = Govern.sub ~scope:nm ?budget_s:budgets.bg_task_s tok in
            resolve st (nm, mem) (Govern.run t2 (fun () -> task (nm, mem)))
          in
          let st = { st with s_diags = diag :: st.s_diags } in
          let st = half st 0 (List.filteri (fun i _ -> i < k) members) in
          half st 1 (List.filteri (fun i _ -> i >= k) members))
  in
  note_deadline tok (List.fold_left2 resolve st named outs)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let drive ?(ctx_cache = Ctx_cache.create ()) ~check_equivalence ~policy ~pool
    ~budgets ~t0 ~load () =
  Obs.with_span ~attrs:[ "policy", (match policy with Strict -> "strict" | Permissive -> "permissive") ]
    "merge.flow"
  @@ fun () ->
  Metrics.set "merge.jobs" (float_of_int (Pool.jobs pool));
  (* The registry accumulates over the process; the run's coverage is
     what it adds. *)
  let coverage0 = List.map Metrics.get_counter coverage_counters in
  (match budgets.bg_mem_limit_mb with
  | Some _ as l -> Govern.set_memory_limit_mb l
  | None -> ());
  let root = Govern.create ?deadline_s:budgets.bg_deadline_s ~scope:"merge" () in
  Obs.event "run.start"
    ~attrs:
      [ "scope", "merge";
        "jobs", string_of_int (Pool.jobs pool);
        "policy", (match policy with Strict -> "strict" | Permissive -> "permissive") ];
  let st =
    staged ~stage:"load" (fun () -> load (stage_token ~budgets root "load"))
  in
  let st =
    staged ~stage:"mergeability" (fun () ->
        compute_matrix ~policy ~pool ~budgets ~ctx_cache ~root st)
  in
  let st =
    staged ~stage:"cliques" (fun () ->
        compute_cliques ~check_equivalence ~policy ~pool ~budgets
          ~ctx_cache ~root st)
  in
  let st = note_deadline root st in
  (* Whole-run GC totals under gc.* gauges: the resource axis of the
     flight recorder, refreshed at every stage boundary that matters. *)
  Obs.record_gc_metrics ();
  let n_individual = List.length st.s_modes
  and n_merged = List.length st.s_groups in
  Obs.event "run.finish"
    ~attrs:
      [ "scope", "merge";
        "groups", string_of_int n_merged;
        "quarantined", string_of_int (List.length st.s_quar);
        "degraded", string_of_int (List.length st.s_degraded) ];
  {
    modes = st.s_modes;
    groups = List.rev st.s_groups;
    mergeability = st.s_matrix;
    quarantined = List.rev st.s_quar;
    degraded = List.rev st.s_degraded;
    diags = List.rev st.s_diags;
    n_individual;
    n_merged;
    reduction_percent =
      Stat.reduction_percent (float_of_int n_individual)
        (float_of_int n_merged);
    runtime_s = Obs.Clock.elapsed_s t0;
    governed = { st.s_gov with gov_events = List.rev st.s_gov.gov_events };
    coverage =
      List.map2
        (fun name n0 -> name, Metrics.get_counter name - n0)
        coverage_counters coverage0;
  }

let run ?(policy = Strict) ?jobs ?(budgets = default_budgets) ?ctx_cache modes
    =
  Pool.with_pool ?jobs @@ fun pool ->
  drive ?ctx_cache ~check_equivalence:true ~policy ~pool ~budgets
    ~t0:(Obs.Clock.now_ns ())
    ~load:(fun _ -> initial modes)
    ()

(* ------------------------------------------------------------------ *)
(* Source loading with per-mode quarantine                             *)

type source = { src_name : string; src_file : string option; src_text : string }

(* A source refused at load (unreadable, or its name taken): the run
   ends with the located fatal under [Strict]; under [Permissive] the
   source is quarantined with it at error severity. *)
exception Load_error of Diag.t

let refuse ~policy ~file ~code fmt =
  Printf.ksprintf
    (fun msg ->
      let diag severity = Diag.make ~loc:(Diag.loc file) severity ~code msg in
      match policy with
      | Strict -> raise (Load_error (diag Diag.Fatal))
      | Permissive -> diag Diag.Error)
    fmt

(* One source as the load stage sees it: a name, the file diagnostics
   are located at, and its text, read inside the load task. *)
type pending = { p_name : string; p_file : string; p_read : unit -> string }

let of_source s =
  {
    p_name = s.src_name;
    (* An in-memory source's diagnostics are located at its name. *)
    p_file = Option.value s.src_file ~default:s.src_name;
    p_read = (fun () -> s.src_text);
  }

let of_path path =
  {
    p_name = Filename.remove_extension (Filename.basename path);
    p_file = path;
    p_read = (fun () -> Mm_sdc.Parser.read_whole_file path);
  }

(* Every per-mode table of the flow is keyed by mode name, so a source
   whose name is taken is refused before it can stand in for the first
   one. Returns the sources to load and the refused ones' diagnostics. *)
let split_duplicates ~policy sources =
  let seen = Hashtbl.create 16 in
  List.partition_map
    (fun p ->
      match Hashtbl.find_opt seen p.p_name with
      | None ->
        Hashtbl.replace seen p.p_name p;
        Either.Left p
      | Some first ->
        Either.Right
          ( p.p_name,
            refuse ~policy ~file:p.p_file ~code:"merge.duplicate-mode"
              "mode name %s is already taken by %s (mode names are source \
               basenames and must be unique)"
              p.p_name first.p_file ))
    sources

(* Load task: read one source, then parse and resolve it, failing fast
   under [Strict] and recovering at command boundaries under
   [Permissive]. Pure — quarantine vs mode travels in the outcome,
   diagnostics alongside. *)
let load_task ~policy ~design p =
  match p.p_read () with
  | exception Sys_error msg ->
    Error
      [
        refuse ~policy ~file:p.p_file ~code:"io.read" "%s"
          (Diag.sys_error_message ~path:p.p_file msg);
      ]
  | text ->
    let resolve =
      match policy with
      | Strict -> Resolve.mode_of_string
      | Permissive -> Resolve.mode_of_string_robust
    in
    let r = resolve ~file:p.p_file design ~name:p.p_name text in
    if policy = Permissive && Diag.has_errors r.Resolve.diags then
      Error r.Resolve.diags
    else Ok (r.Resolve.mode, r.Resolve.diags)

let compute_load ~policy ~design ~pool ~budgets ~tok sources =
  Obs.with_span "merge.load"
    ~attrs:[ "sources", string_of_int (List.length sources) ]
  @@ fun () ->
  let sources, duplicates = split_duplicates ~policy sources in
  let outs =
    Pool.map_outcome pool ~govern:tok ?task_budget_s:budgets.bg_task_s
      (load_task ~policy ~design) sources
  in
  (* Fold outcomes in source order; diagnostics accumulate by reversed
     cons (the old [!d @ r.diags] was quadratic in the source count). *)
  let st =
    List.fold_left2
      (fun st p out ->
        settle ~policy out
          ~ok:(function
            | Ok (mode, diags) ->
              {
                st with
                s_modes = mode :: st.s_modes;
                s_diags = List.rev_append diags st.s_diags;
              }
            | Error diags -> quarantine_into st Load p.p_name diags)
          ~failed:(quarantine_failed st Load p.p_name))
      (List.fold_left
         (fun st (name, diag) -> quarantine_into st Load name [ diag ])
         (initial []) duplicates)
      sources outs
  in
  (* An `always` counter (DESIGN.md §9): registered even at zero. *)
  Metrics.incr ~by:0 "merge.quarantined";
  note_deadline tok { st with s_modes = List.rev st.s_modes }

type loaded = {
  l_modes : Mode.t list;
  l_diags : Diag.t list;
  l_quarantined : quarantined list;
}

let load_files ~policy ~design paths =
  let st =
    Pool.with_pool ~jobs:1 @@ fun pool ->
    compute_load ~policy ~design ~pool ~budgets:default_budgets
      ~tok:Govern.never (List.map of_path paths)
  in
  {
    l_modes = st.s_modes;
    l_diags = List.rev st.s_diags;
    l_quarantined = List.rev st.s_quar;
  }

let run_pending ~check_equivalence ~policy ?jobs ~budgets ~design sources =
  Pool.with_pool ?jobs @@ fun pool ->
  drive ~check_equivalence ~policy ~pool ~budgets ~t0:(Obs.Clock.now_ns ())
    ~load:(fun tok -> compute_load ~policy ~design ~pool ~budgets ~tok sources)
    ()

let run_sources ?(check_equivalence = true) ?(policy = Strict) ?jobs
    ?(budgets = default_budgets) ~design sources =
  run_pending ~check_equivalence ~policy ?jobs ~budgets ~design
    (List.map of_source sources)

let run_files ?(policy = Strict) ?jobs ?(budgets = default_budgets) ~design
    paths =
  run_pending ~check_equivalence:true ~policy ?jobs ~budgets ~design
    (List.map of_path paths)

let merged_modes r = List.map (fun g -> g.grp_mode) r.groups

(* The canonical on-disk shape of a merge result: the exact
   (filename, bytes) pairs the CLI `merge` subcommand writes. *)
let merged_files ?(annotate = false) r =
  List.mapi
    (fun i g ->
      let text =
        if annotate then Provenance.annotated_sdc g.grp_prov g.grp_mode
        else Mm_sdc.Mode.to_sdc g.grp_mode
      in
      Printf.sprintf "merged_%d.sdc" i, text)
    r.groups

let summary_row ~design_name ~size_cells r =
  [
    design_name;
    string_of_int size_cells;
    string_of_int r.n_individual;
    string_of_int r.n_merged;
    Stat.fmt_f1 r.reduction_percent;
    Stat.fmt_time_s r.runtime_s;
  ]
