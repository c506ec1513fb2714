module Mode = Mm_sdc.Mode
module Resolve = Mm_sdc.Resolve
module Stat = Mm_util.Stat
module Diag = Mm_util.Diag
module Obs = Mm_util.Obs
module Metrics = Mm_util.Metrics
module Pool = Mm_util.Pool
module Govern = Mm_util.Govern
module Chaos = Mm_util.Chaos
module Eventlog = Mm_util.Eventlog
module Progress = Mm_util.Progress
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
  bg_retry : Govern.retry_policy;
  bg_mem_limit_mb : float option;
}

let default_budgets =
  {
    bg_deadline_s = None;
    bg_stage_s = [];
    bg_task_s = None;
    bg_retry = Govern.default_retry;
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

type checkpoint_spec = { ck_dir : string; ck_resume : bool; ck_key : string }

type result = {
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
}

(* Mutable accumulator behind the [governed] snapshot. Only the driver
   domain touches it: pool tasks report governance outcomes through
   their return values, never by writing here. *)
type gov_state = {
  mutable gs_splits : int;
  mutable gs_budget_quar : int;
  mutable gs_conservative : int;
  mutable gs_deadline_hit : bool;
  mutable gs_events : govern_event list; (* reversed *)
}

let fresh_gov_state () =
  {
    gs_splits = 0;
    gs_budget_quar = 0;
    gs_conservative = 0;
    gs_deadline_hit = false;
    gs_events = [];
  }

let snapshot_gov gs =
  {
    gov_clique_splits = gs.gs_splits;
    gov_budget_quarantines = gs.gs_budget_quar;
    gov_conservative_pairs = gs.gs_conservative;
    gov_deadline_hit = gs.gs_deadline_hit;
    gov_events = List.rev gs.gs_events;
  }

let restore_gov gs g =
  gs.gs_splits <- g.gov_clique_splits;
  gs.gs_budget_quar <- g.gov_budget_quarantines;
  gs.gs_conservative <- g.gov_conservative_pairs;
  gs.gs_deadline_hit <- g.gov_deadline_hit;
  gs.gs_events <- List.rev g.gov_events

let event gs ~stage ~scope ~action ~detail =
  gs.gs_events <-
    { ge_stage = stage; ge_scope = scope; ge_action = action;
      ge_detail = detail }
    :: gs.gs_events

(* One journal entry per constraint set that leaves the pipeline —
   whatever the cause (parse failure, crash, blown budget). *)
let log_quarantine ~stage q =
  Eventlog.log "merge.quarantined" ~attrs:[ "stage", stage; "mode", q.q_name ]

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

(* Groups keep their prelim without its merged context: nothing past
   refinement reads it, it would pin a context's arrays for the rest of
   the run, and contexts cannot be marshaled into a checkpoint. *)
let without_ctx (prelim : Prelim.t) = { prelim with Prelim.merged_ctx = None }

let singleton_group ?tolerance ~ctx_cache (single : Mode.t) =
  let prelim =
    Prelim.merge ?tolerance ~ctx_cache ~name:single.Mode.mode_name [ single ]
  in
  {
    grp_members = [ single.Mode.mode_name ];
    grp_prelim = without_ctx prelim;
    grp_refine = None;
    grp_equiv = None;
    grp_mode = single;
    grp_prov = Provenance.of_single single;
  }

let merged_group ?tolerance ~check_equivalence ~ctx_cache ~name members =
  let prelim = Prelim.merge ?tolerance ~ctx_cache ~name members in
  let refine = Refine.run ~ctx_cache ~prelim ~individual:members () in
  let equiv =
    if check_equivalence then
      Some
        (Equiv.check ~ctx_cache ?merged_ctx:refine.Refine.refined_ctx
           ~individual:members
           ~rename:(Prelim.rename_of prelim)
           ~merged:refine.Refine.refined ())
    else None
  in
  let mode = refine.Refine.refined in
  {
    grp_members = List.map (fun (m : Mode.t) -> m.Mode.mode_name) members;
    grp_prelim = without_ctx prelim;
    grp_refine = Some refine;
    grp_equiv = equiv;
    grp_mode = mode;
    grp_prov =
      Provenance.of_group ~members ~prelim ~refine:(Some refine) ~mode;
  }

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
  tk_quarantined : quarantined list;
  tk_degraded : string list list;
  tk_diags : Diag.t list;
}

(* Permissive stage-1 task: probe one mode's singleton merge (context
   construction + clock propagation). A mode that cannot even stand
   alone is quarantined before it can poison the pairwise analysis.
   The probe's group is kept — stage 3 reuses it for singleton cliques
   and degraded members instead of merging the mode a second time. *)
let probe_task ?tolerance ~ctx_cache (m : Mode.t) =
  let ctx_cache = Ctx_cache.fork ctx_cache in
  match singleton_group ?tolerance ~ctx_cache m with
  | g -> Ok (m, g)
  | exception exn ->
    Error
      {
        q_name = m.Mode.mode_name;
        q_stage = Probe;
        q_diags =
          [ exn_diag ~code:"merge.mode-failed" ~name:m.Mode.mode_name exn ];
      }

(* Stage-3 task: merge one clique. [probed] holds the memoized
   singleton groups from stage 1 (empty under [Strict]); it is written
   before the stage-3 batch is published and only read afterwards.
   [name] is the merged mode's name — [merged_<gi>] for top-level
   cliques, [merged_<gi>_s<k>...] for the halves of a budget split. *)
let clique_task ?tolerance ~check_equivalence ~policy ~probed ~ctx_cache ~name
    members =
  let ctx_cache = Ctx_cache.fork ctx_cache in
  let singleton (m : Mode.t) =
    match Hashtbl.find_opt probed m.Mode.mode_name with
    | Some g -> g
    | None -> singleton_group ?tolerance ~ctx_cache m
  in
  let ok g = { tk_groups = [ g ]; tk_quarantined = []; tk_degraded = []; tk_diags = [] } in
  let quarantine (m : Mode.t) exn =
    {
      q_name = m.Mode.mode_name;
      q_stage = Merge;
      q_diags = [ exn_diag ~code:"merge.mode-failed" ~name:m.Mode.mode_name exn ];
    }
  in
  (* Permissive fallback: keep the clique's modes individual
     ("when in doubt, don't merge"). *)
  let degrade reason =
    let names = List.map (fun (m : Mode.t) -> m.Mode.mode_name) members in
    let diag =
      Diag.makef Diag.Warning ~code:"merge.group-degraded"
        "group [%s] kept as individual modes: %s" (String.concat ", " names)
        reason
    in
    let groups, quarantines =
      List.fold_left
        (fun (gs, qs) (m : Mode.t) ->
          match singleton m with
          | g -> g :: gs, qs
          | exception exn -> gs, quarantine m exn :: qs)
        ([], []) members
    in
    {
      tk_groups = List.rev groups;
      tk_quarantined = List.rev quarantines;
      tk_degraded = [ names ];
      tk_diags = [ diag ];
    }
  in
  Obs.with_span "merge.group"
    ~attrs:
      [
        "members",
        String.concat ","
          (List.map (fun (m : Mode.t) -> m.Mode.mode_name) members);
      ]
  @@ fun () ->
  match members, policy with
  | [ single ], Strict -> ok (singleton single)
  | [ single ], Permissive -> (
    match singleton single with
    | g -> ok g
    | exception exn ->
      {
        tk_groups = [];
        tk_quarantined = [ quarantine single exn ];
        tk_degraded = [];
        tk_diags = [];
      })
  | _, Strict ->
    ok
      (merged_group ?tolerance ~check_equivalence ~ctx_cache ~name members)
  | _, Permissive -> (
    match
      merged_group ?tolerance ~check_equivalence ~ctx_cache ~name members
    with
    | g -> (
      match g.grp_equiv with
      | Some e when not e.Equiv.equivalent ->
        degrade
          (Printf.sprintf
             "merged mode failed the equivalence check (%d mismatches)"
             e.Equiv.mismatches)
      | _ -> ok g)
    | exception exn ->
      degrade (Printf.sprintf "merge failed with %s" (Printexc.to_string exn)))

(* ------------------------------------------------------------------ *)
(* Degradation ladder, rung 1: retry with exponential backoff

   An abandoned or crashed task is re-attempted under a fresh child
   budget while the stage still has budget. Transient faults (an
   injected chaos exception, a task-budget timeout under momentary
   load) are absorbed here with byte-identical output — the re-run
   computes exactly what the first run would have. Only when retries
   are exhausted do the outcome-changing rungs (split, quarantine)
   engage. *)

let note_interrupt = function
  | Govern.Interrupted (Govern.Deadline_exceeded _) as o ->
    Metrics.incr "govern.timeouts";
    o
  | Govern.Interrupted (Govern.Memory_watermark _) as o ->
    Metrics.incr "govern.mem_trips";
    o
  | o -> o

let rescue ~stage_tok ~budgets ~scope f o =
  match note_interrupt o with
  | Govern.Done _ as d -> d
  | first ->
    let p = budgets.bg_retry in
    let rec go attempt last =
      if attempt > p.Govern.max_attempts || Govern.expired stage_tok then last
      else begin
        Metrics.incr "govern.retries";
        Eventlog.log "govern.retry"
          ~attrs:[ "scope", scope; "attempt", string_of_int attempt ];
        Govern.sleep_s (Govern.backoff_s p ~attempt);
        let tok = Govern.sub ~scope ?budget_s:budgets.bg_task_s stage_tok in
        let o =
          note_interrupt
            (Govern.run tok (fun () ->
                 Chaos.hit "pool.retry";
                 f ()))
        in
        match o with Govern.Done _ as d -> d | o -> go (attempt + 1) o
      end
    in
    go 2 first

(* Strict policy: governance failures propagate like any other failure
   (after the retry rung) — crashes with their original backtrace,
   expired budgets as [Govern.Cancelled]. *)
let strict_fail o =
  match Govern.reraise_crash o with
  | Govern.Interrupted r -> raise (Govern.Cancelled r)
  | Govern.Done _ | Govern.Crashed _ -> assert false

(* ------------------------------------------------------------------ *)
(* Checkpointed stage state

   Each record is the {e cumulative} pipeline state at its stage
   boundary, so resuming needs only the latest completed stage's
   payload. All three are closure-free (Marshal-safe). *)

type st_load = {
  sl_modes : Mode.t list;
  sl_quar : quarantined list;
  sl_diags : Diag.t list;
  sl_gov : governed;
}

type st_matrix = {
  sm_modes : Mode.t list; (* survivors of the probe, analysis order *)
  sm_probed : (string * group) list; (* memoized singleton groups *)
  sm_matrix : Mergeability.t;
  sm_quar : quarantined list;
  sm_diags : Diag.t list;
  sm_gov : governed;
}

type st_cliques = {
  sc_groups : group list;
  sc_quar : quarantined list;
  sc_degraded : string list list;
  sc_diags : Diag.t list;
  sc_gov : governed;
}

let stage_token ~budgets root name =
  Govern.sub
    ~scope:("merge." ^ name)
    ?budget_s:(List.assoc_opt name budgets.bg_stage_s)
    root

(* Run one pipeline stage through the checkpoint store: a completed
   stage reloads (with its metric-counter snapshot) instead of
   recomputing; a computed stage persists {e before} the chaos kill
   site fires, so a [merge.stage:*] kill always leaves a resumable
   checkpoint. *)
let staged ck ~stage compute =
  let recompute () =
    Eventlog.log "stage.start" ~attrs:[ "stage", stage ];
    let v = compute () in
    (match ck with
    | Some t ->
      Checkpoint.save_stage t ~stage ~counters:(Metrics.counters ()) v
    | None -> ());
    Eventlog.log "stage.finish" ~attrs:[ "stage", stage ];
    Chaos.hit ("merge.stage:" ^ stage);
    v
  in
  match ck with
  | Some t when Checkpoint.has_stage t stage -> (
    match Checkpoint.load_stage t ~stage with
    | Some (v, counters) ->
      Metrics.restore_counters counters;
      Eventlog.log "stage.resumed" ~attrs:[ "stage", stage ];
      v
    | None -> recompute ())
  | _ -> recompute ()

(* ------------------------------------------------------------------ *)
(* Stage computes                                                      *)

(* Load task: parse and resolve one source. Pure — quarantine vs mode
   travels in the outcome, diagnostics alongside. *)
let load_task ~policy ~design src_name src_file src_text =
  (* The diagnostic location falls back to the mode name so that
     quarantined in-memory sources still carry a located report. *)
  let file = Option.value src_file ~default:src_name in
  match policy with
  | Strict ->
    let r = Resolve.mode_of_string ~file design ~name:src_name src_text in
    Ok (r.Resolve.mode, r.Resolve.diags)
  | Permissive ->
    let r =
      Resolve.mode_of_string_robust ~file design ~name:src_name src_text
    in
    if Diag.has_errors r.Resolve.diags then
      Error { q_name = src_name; q_stage = Load; q_diags = r.Resolve.diags }
    else Ok (r.Resolve.mode, r.Resolve.diags)

let compute_matrix ?tolerance ~policy ~pool ~budgets ~gs ~ctx_cache ~root
    (ld : st_load) =
  let tok = stage_token ~budgets root "mergeability" in
  Progress.add_total ~by:(List.length ld.sl_modes) "merge.mergeability";
  let quar = ref (List.rev ld.sl_quar) in
  let diags = ref (List.rev ld.sl_diags) in
  let quarantine q =
    Metrics.incr "merge.quarantined";
    log_quarantine ~stage:"mergeability" q;
    quar := q :: !quar
  in
  (* Stage 1 (permissive): per-mode probe tasks. *)
  let probed = Hashtbl.create 16 in
  let modes =
    match policy with
    | Strict -> ld.sl_modes
    | Permissive ->
      let outs =
        Pool.map_outcome pool ~govern:tok ?task_budget_s:budgets.bg_task_s
          (probe_task ?tolerance ~ctx_cache)
          ld.sl_modes
      in
      List.rev
        (List.fold_left2
           (fun acc (m : Mode.t) out ->
             let name = m.Mode.mode_name in
             Progress.tick "merge.mergeability";
             match
               rescue ~stage_tok:tok ~budgets ~scope:name
                 (fun () -> probe_task ?tolerance ~ctx_cache m)
                 out
             with
             | Govern.Done (Ok ((m : Mode.t), g)) ->
               Hashtbl.replace probed m.Mode.mode_name g;
               m :: acc
             | Govern.Done (Error q) ->
               quarantine q;
               acc
             | Govern.Crashed { exn; _ } ->
               quarantine
                 {
                   q_name = name;
                   q_stage = Probe;
                   q_diags = [ exn_diag ~code:"merge.mode-failed" ~name exn ];
                 };
               acc
             | Govern.Interrupted r ->
               (* Ladder rung 3: a mode whose probe never fit the
                  budget is quarantined, like a crashing one. *)
               gs.gs_budget_quar <- gs.gs_budget_quar + 1;
               event gs ~stage:"mergeability" ~scope:name ~action:"quarantine"
                 ~detail:(Govern.reason_to_string r);
               quarantine
                 {
                   q_name = name;
                   q_stage = Probe;
                   q_diags = [ interrupt_diag ~name r ];
                 };
               acc)
           [] ld.sl_modes outs)
  in
  (* Stage 2: mergeability graph + clique cover (pairwise checks are
     pool tasks inside [Mergeability.analyze]). *)
  let c0 = Metrics.get_counter "govern.conservative_pairs" in
  let matrix =
    match policy with
    | Strict ->
      Mergeability.analyze ?tolerance ~ctx_cache ~pool ~govern:tok
        ?task_budget_s:budgets.bg_task_s modes
    | Permissive -> (
      try
        Mergeability.analyze ?tolerance ~ctx_cache ~pool ~govern:tok
          ?task_budget_s:budgets.bg_task_s ~conservative:true modes
      with exn ->
        diags :=
          Diag.makef Diag.Error ~code:"merge.analysis-failed"
            "mergeability analysis failed (%s); keeping all modes individual"
            (Printexc.to_string exn)
          :: !diags;
        degenerate_mergeability modes)
  in
  let dc = Metrics.get_counter "govern.conservative_pairs" - c0 in
  if dc > 0 then begin
    gs.gs_conservative <- gs.gs_conservative + dc;
    Eventlog.log "govern.conservative"
      ~attrs:[ "stage", "mergeability"; "pairs", string_of_int dc ];
    event gs ~stage:"mergeability" ~scope:"pairs" ~action:"conservative"
      ~detail:
        (Printf.sprintf
           "%d pair checks abandoned under budget; treated as not mergeable"
           dc)
  end;
  Metrics.incr ~by:(List.length matrix.Mergeability.cliques) "merge.cliques";
  if Govern.cancelled tok <> None then gs.gs_deadline_hit <- true;
  Progress.finish "merge.mergeability";
  {
    sm_modes = modes;
    sm_probed =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) probed []);
    sm_matrix = matrix;
    sm_quar = List.rev !quar;
    sm_diags = List.rev !diags;
    sm_gov = snapshot_gov gs;
  }

let compute_cliques ?tolerance ~check_equivalence ~policy ~pool ~budgets ~gs
    ~ctx_cache ~root (sm : st_matrix) =
  let tok = stage_token ~budgets root "cliques" in
  let probed = Hashtbl.create 16 in
  List.iter (fun (k, g) -> Hashtbl.replace probed k g) sm.sm_probed;
  let cliques = Mergeability.clique_modes sm.sm_matrix sm.sm_modes in
  let named =
    List.mapi (fun gi members -> Printf.sprintf "merged_%d" gi, members) cliques
  in
  Progress.add_total ~by:(List.length named) "merge.cliques";
  let task (name, members) =
    clique_task ?tolerance ~check_equivalence ~policy ~probed ~ctx_cache ~name
      members
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
  (* Degradation ladder for a clique the retry rung could not save:
     split it in half and merge the halves under their own budgets
     (recursively, down to singletons), then quarantine what still
     does not fit. Splitting only forfeits reduction — every surviving
     half is a normal merged group with the full refine/equivalence
     treatment — so the paper's inclusion guarantee is preserved. *)
  let rec resolve (name, members) out =
    match
      rescue ~stage_tok:tok ~budgets ~scope:name
        (fun () -> task (name, members))
        out
    with
    | Govern.Done t -> t
    | o when policy = Strict -> strict_fail o
    | o -> (
      match members with
      | [] -> { tk_groups = []; tk_quarantined = []; tk_degraded = []; tk_diags = [] }
      | [ (m : Mode.t) ] -> (
        let mode_name = m.Mode.mode_name in
        match o, Hashtbl.find_opt probed mode_name with
        | Govern.Interrupted _, Some g ->
          (* The probe already computed this mode's singleton group;
             reusing it is byte-identical to the un-interrupted task. *)
          { tk_groups = [ g ]; tk_quarantined = []; tk_degraded = []; tk_diags = [] }
        | Govern.Interrupted r, None ->
          gs.gs_budget_quar <- gs.gs_budget_quar + 1;
          event gs ~stage:"cliques" ~scope:mode_name ~action:"quarantine"
            ~detail:(Govern.reason_to_string r);
          {
            tk_groups = [];
            tk_quarantined =
              [
                {
                  q_name = mode_name;
                  q_stage = Merge;
                  q_diags = [ interrupt_diag ~name:mode_name r ];
                };
              ];
            tk_degraded = [];
            tk_diags = [];
          }
        | (Govern.Crashed { exn; _ } : task_out Govern.outcome), _ ->
          {
            tk_groups = [];
            tk_quarantined =
              [
                {
                  q_name = mode_name;
                  q_stage = Merge;
                  q_diags =
                    [ exn_diag ~code:"merge.mode-failed" ~name:mode_name exn ];
                };
              ];
            tk_degraded = [];
            tk_diags = [];
          }
        | Govern.Done _, _ -> assert false)
      | _ ->
        let why =
          match o with
          | Govern.Interrupted r -> Govern.reason_to_string r
          | Govern.Crashed { exn; _ } -> Printexc.to_string exn
          | Govern.Done _ -> assert false
        in
        gs.gs_splits <- gs.gs_splits + 1;
        Metrics.incr "govern.clique_splits";
        Eventlog.log "govern.clique_split"
          ~attrs:
            [ "clique", name;
              "members", string_of_int (List.length members);
              "why", why ];
        event gs ~stage:"cliques" ~scope:name ~action:"split" ~detail:why;
        let diag =
          Diag.makef Diag.Warning ~code:"govern.clique-split"
            "clique %s split under budget pressure: %s" name why
        in
        let k = (List.length members + 1) / 2 in
        let left = List.filteri (fun i _ -> i < k) members in
        let right = List.filteri (fun i _ -> i >= k) members in
        let sub i mem =
          let nm = Printf.sprintf "%s_s%d" name i in
          let t2 = Govern.sub ~scope:nm ?budget_s:budgets.bg_task_s tok in
          resolve (nm, mem) (Govern.run t2 (fun () -> task (nm, mem)))
        in
        let a = sub 0 left in
        let b = sub 1 right in
        {
          tk_groups = a.tk_groups @ b.tk_groups;
          tk_quarantined = a.tk_quarantined @ b.tk_quarantined;
          tk_degraded = a.tk_degraded @ b.tk_degraded;
          tk_diags = (diag :: a.tk_diags) @ b.tk_diags;
        })
  in
  let quar = ref (List.rev sm.sm_quar) in
  let diags = ref (List.rev sm.sm_diags) in
  let groups, degraded =
    List.fold_left2
      (fun (acc_g, acc_d) nm out ->
        let t = resolve nm out in
        Progress.tick "merge.cliques";
        List.iter
          (fun q ->
            Metrics.incr "merge.quarantined";
            log_quarantine ~stage:"cliques" q;
            quar := q :: !quar)
          t.tk_quarantined;
        Metrics.incr ~by:(List.length t.tk_degraded) "merge.degraded_cliques";
        List.iter
          (fun members ->
            Eventlog.log "merge.degraded"
              ~attrs:
                [ "stage", "cliques"; "modes", String.concat "," members ])
          t.tk_degraded;
        List.iter (fun d -> diags := d :: !diags) t.tk_diags;
        List.rev_append t.tk_groups acc_g, List.rev_append t.tk_degraded acc_d)
      ([], []) named outs
  in
  if Govern.cancelled tok <> None then gs.gs_deadline_hit <- true;
  Progress.finish "merge.cliques";
  {
    sc_groups = List.rev groups;
    sc_quar = List.rev !quar;
    sc_degraded = List.rev degraded;
    sc_diags = List.rev !diags;
    sc_gov = snapshot_gov gs;
  }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let drive ?tolerance ~check_equivalence ~policy ~pool ~budgets ~ck
    ~extra_diags ~t0 ~load () =
  Obs.with_span ~attrs:[ "policy", (match policy with Strict -> "strict" | Permissive -> "permissive") ]
    "merge.flow"
  @@ fun () ->
  Metrics.set "merge.jobs" (float_of_int (Pool.jobs pool));
  (match budgets.bg_mem_limit_mb with
  | Some _ as l -> Govern.set_memory_limit_mb l
  | None -> ());
  let root = Govern.create ?deadline_s:budgets.bg_deadline_s ~scope:"merge" () in
  Govern.set_run_root root;
  Eventlog.log "run.start"
    ~attrs:
      [ "scope", "merge";
        "jobs", string_of_int (Pool.jobs pool);
        "policy", (match policy with Strict -> "strict" | Permissive -> "permissive") ];
  let gs = fresh_gov_state () in
  let ctx_cache = Ctx_cache.create () in
  let ld =
    staged ck ~stage:"load" (fun () ->
        load ~tok:(stage_token ~budgets root "load") ~gs)
  in
  restore_gov gs ld.sl_gov;
  let sm =
    staged ck ~stage:"mergeability" (fun () ->
        compute_matrix ?tolerance ~policy ~pool ~budgets ~gs ~ctx_cache ~root
          ld)
  in
  restore_gov gs sm.sm_gov;
  let sc =
    staged ck ~stage:"cliques" (fun () ->
        let sc =
          compute_cliques ?tolerance ~check_equivalence ~policy ~pool ~budgets
            ~gs ~ctx_cache ~root sm
        in
        (* The equivalence check (the only consumer of refined_ctx) has
           already run inside compute_cliques; strip the contexts so the
           stage value marshals cleanly into the checkpoint. *)
        {
          sc with
          sc_groups =
            List.map
              (fun g ->
                {
                  g with
                  grp_refine =
                    Option.map
                      (fun r -> { r with Refine.refined_ctx = None })
                      g.grp_refine;
                })
              sc.sc_groups;
        })
  in
  restore_gov gs sc.sc_gov;
  if Govern.cancelled root <> None then gs.gs_deadline_hit <- true;
  (* Whole-run GC totals under gc.* gauges: the resource axis of the
     flight recorder, refreshed at every stage boundary that matters. *)
  Obs.record_gc_metrics ();
  let n_individual = List.length sm.sm_modes
  and n_merged = List.length sc.sc_groups in
  Eventlog.log "run.finish"
    ~attrs:
      [ "scope", "merge";
        "groups", string_of_int n_merged;
        "quarantined", string_of_int (List.length sc.sc_quar);
        "degraded", string_of_int (List.length sc.sc_degraded) ];
  {
    groups = sc.sc_groups;
    mergeability = sm.sm_matrix;
    quarantined = sc.sc_quar;
    degraded = sc.sc_degraded;
    diags = extra_diags @ sc.sc_diags;
    n_individual;
    n_merged;
    reduction_percent =
      Stat.reduction_percent (float_of_int n_individual)
        (float_of_int n_merged);
    runtime_s = Obs.Clock.elapsed_s t0;
    governed = snapshot_gov gs;
  }

let run ?tolerance ?(check_equivalence = true) ?(policy = Strict) ?jobs
    ?(budgets = default_budgets) modes =
  Pool.with_pool ?jobs @@ fun pool ->
  drive ?tolerance ~check_equivalence ~policy ~pool ~budgets ~ck:None
    ~extra_diags:[]
    ~t0:(Obs.Clock.now_ns ())
    ~load:(fun ~tok:_ ~gs:_ ->
      { sl_modes = modes; sl_quar = []; sl_diags = []; sl_gov = empty_governed })
    ()

(* ------------------------------------------------------------------ *)
(* Source loading with per-mode quarantine                             *)

type source = { src_name : string; src_file : string option; src_text : string }

let source_of_file path =
  {
    src_name = Filename.remove_extension (Filename.basename path);
    src_file = Some path;
    src_text = Mm_sdc.Parser.read_whole_file path;
  }

(* The checkpoint fingerprint covers everything that shapes the result:
   the inputs themselves plus the options the stage payloads bake in.
   Budgets and jobs are deliberately excluded — resuming with a bigger
   budget or different parallelism is legitimate (and jobs-invariance
   guarantees the same bytes). *)
let fingerprint ?tolerance ~check_equivalence ~policy ~key sources =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( Checkpoint.schema_version,
            key,
            policy,
            check_equivalence,
            tolerance,
            List.map (fun s -> s.src_name, s.src_text) sources )
          []))

let compute_load ~policy ~design ~pool ~budgets ~gs ~tok sources =
  Obs.with_span "merge.load"
    ~attrs:[ "sources", string_of_int (List.length sources) ]
  @@ fun () ->
  Progress.add_total ~by:(List.length sources) "merge.load";
  let task src = load_task ~policy ~design src.src_name src.src_file src.src_text in
  let outs =
    Pool.map_outcome pool ~govern:tok ?task_budget_s:budgets.bg_task_s task
      sources
  in
  (* Fold outcomes in source order; diagnostics accumulate by reversed
     cons (the old [!d @ r.diags] was quadratic in the source count). *)
  let modes, quar, diags =
    List.fold_left2
      (fun (ms, qs, ds) src out ->
        let name = src.src_name in
        Progress.tick "merge.load";
        match
          rescue ~stage_tok:tok ~budgets ~scope:name (fun () -> task src) out
        with
        | Govern.Done (Ok (mode, diags)) ->
          mode :: ms, qs, List.rev_append diags ds
        | Govern.Done (Error q) -> ms, q :: qs, ds
        | (Govern.Crashed _ | Govern.Interrupted _) as o
          when policy = Strict ->
          strict_fail o
        | Govern.Crashed { exn; _ } ->
          let q =
            {
              q_name = name;
              q_stage = Load;
              q_diags = [ exn_diag ~code:"merge.mode-failed" ~name exn ];
            }
          in
          ms, q :: qs, ds
        | Govern.Interrupted r ->
          gs.gs_budget_quar <- gs.gs_budget_quar + 1;
          event gs ~stage:"load" ~scope:name ~action:"quarantine"
            ~detail:(Govern.reason_to_string r);
          let q =
            { q_name = name; q_stage = Load; q_diags = [ interrupt_diag ~name r ] }
          in
          ms, q :: qs, ds)
      ([], [], []) sources outs
  in
  let quar = List.rev quar in
  Metrics.incr ~by:(List.length quar) "merge.quarantined";
  List.iter (log_quarantine ~stage:"load") quar;
  if Govern.cancelled tok <> None then gs.gs_deadline_hit <- true;
  Progress.finish "merge.load";
  {
    sl_modes = List.rev modes;
    sl_quar = quar;
    sl_diags = List.rev diags;
    sl_gov = snapshot_gov gs;
  }

let run_sources ?tolerance ?(check_equivalence = true) ?(policy = Strict) ?jobs
    ?(budgets = default_budgets) ?checkpoint ~design sources =
  Pool.with_pool ?jobs @@ fun pool ->
  let t0 = Obs.Clock.now_ns () in
  let extra_diags = ref [] in
  let ck =
    match checkpoint with
    | None -> None
    | Some spec ->
      let fp =
        fingerprint ?tolerance ~check_equivalence ~policy ~key:spec.ck_key
          sources
      in
      if spec.ck_resume then
        match Checkpoint.load_for_resume ~dir:spec.ck_dir ~fingerprint:fp with
        | Ok t -> Some t
        | Error msg ->
          extra_diags :=
            [
              Diag.makef Diag.Warning ~code:"govern.resume"
                "cannot resume: %s; starting fresh" msg;
            ];
          Some (Checkpoint.create ~dir:spec.ck_dir ~fingerprint:fp)
      else Some (Checkpoint.create ~dir:spec.ck_dir ~fingerprint:fp)
  in
  drive ?tolerance ~check_equivalence ~policy ~pool ~budgets ~ck
    ~extra_diags:!extra_diags ~t0
    ~load:(fun ~tok ~gs ->
      compute_load ~policy ~design ~pool ~budgets ~gs ~tok sources)
    ()

let run_files ?tolerance ?check_equivalence ?(policy = Strict) ?jobs ?budgets
    ?checkpoint ~design paths =
  (* In strict mode an unreadable file raises [Sys_error]; in
     permissive mode it is quarantined up front with a fatal io.read
     diagnostic and the remaining files still merge. Reads run under
     the retry rung so a transient IO fault never aborts a run. *)
  let retry = (Option.value budgets ~default:default_budgets).bg_retry in
  let read path =
    Govern.with_retry ~policy:retry Govern.never ~scope:path
      ~transient:(function
        | Sys_error _ | Chaos.Injected _ -> true
        | _ -> false)
      (fun () ->
        Chaos.hit "io.read";
        source_of_file path)
  in
  let io_failed = ref [] in
  let sources =
    List.filter_map
      (fun path ->
        match read path with
        | s -> Some s
        | exception Chaos.Injected site ->
          if policy = Strict then raise (Chaos.Injected site);
          io_failed :=
            {
              q_name = Filename.remove_extension (Filename.basename path);
              q_stage = Load;
              q_diags =
                [
                  Diag.makef ~loc:(Diag.loc path) Diag.Fatal ~code:"io.read"
                    "injected fault at %s" site;
                ];
            }
            :: !io_failed;
          None
        | exception Sys_error msg ->
          if policy = Strict then raise (Sys_error msg);
          io_failed :=
            {
              q_name = Filename.remove_extension (Filename.basename path);
              q_stage = Load;
              q_diags =
                [ Diag.makef ~loc:(Diag.loc path) Diag.Fatal ~code:"io.read" "%s" msg ];
            }
            :: !io_failed;
          None)
      paths
  in
  let r =
    run_sources ?tolerance ?check_equivalence ~policy ?jobs ?budgets
      ?checkpoint ~design sources
  in
  Metrics.incr ~by:(List.length !io_failed) "merge.quarantined";
  List.iter (log_quarantine ~stage:"load") !io_failed;
  { r with quarantined = List.rev !io_failed @ r.quarantined }

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
