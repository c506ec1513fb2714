(** End-to-end mode-merging flow.

    mergeability analysis -> greedy clique cover -> per clique:
    preliminary merge, refinement, equivalence check. Produces the
    reduced mode set plus the full per-group evidence, and the summary
    numbers reported in the paper's Table 5.

    {2 Fault tolerance}

    The flow runs under a {!policy}:

    - [Strict] (default) is fail-fast: any load, resolution or merge
      failure raises, exactly as a regression run wants.
    - [Permissive] degrades instead of aborting. A mode whose SDC fails
      to load/resolve, or which crashes even standing alone, is
      {e quarantined} — excluded from the merge with its diagnostics
      attached — while the remaining modes still merge. A clique whose
      preliminary merge, refinement or equivalence validation fails
      falls back to keeping that clique's modes individual
      (correctness-preserving degradation: "when in doubt, don't
      merge"). Permissive mode never raises on bad constraint input.

    Tasks catch nothing: every crash and every
    {!Mm_util.Govern.Cancelled} comes back from the pool as a
    {!Mm_util.Govern.outcome}, and one function of the flow settles it
    under the run's policy.

    {2 Parallel execution}

    Every stage is a batch of pure tasks executed on an
    {!Mm_util.Pool}: per-source load tasks, per-mode probe tasks, the
    pairwise mergeability checks, and per-clique merge tasks. Task
    outcomes carry their groups, quarantines, degradations and
    diagnostics as values, and the driver folds them in input order —
    so the result (groups, diagnostics, quarantine and degradation
    lists, metric counters) is byte-identical for any [jobs] count.
    [jobs] defaults to {!Mm_util.Pool.default_jobs} ([MM_JOBS] or the
    hardware's recommended domain count); [jobs = 1] runs sequentially
    on the calling domain with no domains spawned.

    {2 Resource governance}

    A run may carry {!budgets}: a global deadline, per-stage budgets
    (keyed by {!stage_names}), a per-task timeout and a memory
    watermark — all enforced through {!Mm_util.Govern} cancellation
    tokens with cooperative checkpoints, so an exhausted budget drains
    the pool in an orderly way instead of wedging it. A task whose
    budget runs out, at entry or mid-task, walks a {e degradation
    ladder} under [Permissive]:

    + {b split} — a clique whose merge will not fit is split in half
      and the halves merged under their own budgets, recursively down
      to singletons ([govern.clique_splits]); splitting forfeits
      reduction, never correctness;
    + {b quarantine} — a mode that still does not fit is quarantined
      exactly like a crashing one, counted in the [governed] record; a
      pair check that does not finish is settled as not mergeable
      ([govern.conservative_pairs]), which also forfeits only
      reduction.

    Every interrupted task counts once in [govern.timeouts] (deadline)
    or [govern.mem_trips] (memory watermark). Under [Strict] nothing
    degrades: a failed task propagates, a crash with its original
    backtrace and an exhausted budget as {!Mm_util.Govern.Cancelled}.
    The {!governed} result field records every outcome-affecting
    governance decision. *)

type policy = Strict | Permissive

type stage = Load | Probe | Merge
(** Where a quarantined mode fell out: SDC loading/resolution, the
    standalone viability probe, or the merge itself. *)

val stage_to_string : stage -> string

type quarantined = {
  q_name : string;               (** mode name *)
  q_stage : stage;
  q_diags : Mm_util.Diag.t list; (** at least one, located *)
}

type group = {
  grp_members : string list;     (** individual mode names *)
  grp_prelim : Prelim.t;
  grp_refine : Refine.t option;  (** None for singleton groups *)
  grp_equiv : Equiv.report option;
  grp_mode : Mm_sdc.Mode.t;      (** the mode to use downstream *)
  grp_prov : Mm_util.Prov.store;
      (** per-constraint lineage of [grp_mode] (see {!Provenance}) *)
}

(** {2 Budgets and the governance record} *)

type budgets = {
  bg_deadline_s : float option;  (** global wall-clock deadline *)
  bg_stage_s : (string * float) list;
      (** per-stage budgets, keyed by {!stage_names} *)
  bg_task_s : float option;      (** per-task timeout *)
  bg_mem_limit_mb : float option;  (** process heap watermark *)
}

val default_budgets : budgets
(** No deadline, no stage/task budgets, no memory limit — governance
    off. *)

val stage_names : string list
(** The budgetable stage keys, in pipeline order:
    [["load"; "mergeability"; "cliques"]]. *)

type govern_event = {
  ge_stage : string;   (** stage name from {!stage_names} *)
  ge_scope : string;   (** mode or clique name *)
  ge_action : string;  (** ["split"], ["quarantine"] or ["conservative"] *)
  ge_detail : string;
}

type governed = {
  gov_clique_splits : int;
  gov_budget_quarantines : int;
  gov_conservative_pairs : int;
  gov_deadline_hit : bool;
  gov_events : govern_event list;  (** chronological *)
}

val degraded_under_budget : governed -> bool
(** True when governance changed the outcome (splits, budget
    quarantines or conservative pair verdicts) — the CLI's exit-3
    condition. *)

type result = {
  modes : Mm_sdc.Mode.t list;
      (** the modes that entered the merge (quarantined excluded), in
          source order, as loaded and resolved *)
  groups : group list;
  mergeability : Mergeability.t;
  quarantined : quarantined list;
      (** modes excluded from the merge, with diagnostics (empty under
          [Strict], which raises instead) *)
  degraded : string list list;
      (** cliques that fell back to individual modes *)
  diags : Mm_util.Diag.t list;
      (** run-level diagnostics, including load warnings *)
  n_individual : int;  (** modes that entered the merge (quarantined excluded) *)
  n_merged : int;
  reduction_percent : float;
  runtime_s : float;
  governed : governed;
      (** outcome-affecting governance decisions (all zero and empty
          for an ungoverned or unpressured run) *)
  coverage : (string * int) list;
      (** what this run added to each of {!coverage_counters}, in that
          order — the audit's coverage section, independent of any
          earlier run in the process *)
}

val coverage_counters : string list
(** The per-pass coverage counters a result carries:
    [compare.endpoints_visited], [compare.endpoints_pruned],
    [compare.pairs_compared], [compare.reconv_points],
    [merge.pairs_checked] and [merge.cliques]. *)

val run :
  ?policy:policy ->
  ?jobs:int ->
  ?budgets:budgets ->
  ?ctx_cache:Mm_timing.Ctx_cache.t ->
  Mm_sdc.Mode.t list ->
  result
(** Each merged group's equivalence verdict ({!group.grp_equiv}) is
    read from refinement's final comparison of the merged mode against
    every member — the comparison is not run a second time; under
    [Permissive] a group failing it is degraded to individual modes.

    Every context the run builds comes from one {!Mm_timing.Ctx_cache}
    and its layer store: a fresh one that dies with the run, or
    [ctx_cache] when given (so a caller can read
    {!Mm_timing.Ctx_cache.layers} afterwards). *)

(** {2 Loading from SDC sources with per-mode quarantine} *)

type source = {
  src_name : string;          (** mode name *)
  src_file : string option;   (** diagnostic location, when on disk *)
  src_text : string;          (** SDC text *)
}

exception Load_error of Mm_util.Diag.t
(** Raised at load under [Strict], with a fatal diagnostic located at
    the source, when a source is refused: its file cannot be read
    ([io.read]) or its mode name is taken ([merge.duplicate-mode],
    naming the earlier source; every per-mode table of the flow is
    keyed by mode name). Under [Permissive] the source is quarantined
    with the same diagnostic at error severity. *)

val run_sources :
  ?check_equivalence:bool ->
  ?policy:policy ->
  ?jobs:int ->
  ?budgets:budgets ->
  design:Mm_netlist.Design.t ->
  source list ->
  result
(** Load each source against [design] and merge as {!run} does. Under
    [Strict] a syntax error raises {!Mm_sdc.Parser.Error} and a refused
    source {!Load_error}; under [Permissive] parsing recovers at
    command boundaries, and a mode with error-severity diagnostics or a
    refused source is quarantined. [~check_equivalence:false] leaves
    every {!group.grp_equiv} [None], so [Permissive] degrades no
    group. *)

val run_files :
  ?policy:policy ->
  ?jobs:int ->
  ?budgets:budgets ->
  design:Mm_netlist.Design.t ->
  string list ->
  result
(** {!run_sources} over SDC files, loaded as {!load_files} loads
    them. *)

type loaded = {
  l_modes : Mm_sdc.Mode.t list;  (** in file order *)
  l_diags : Mm_util.Diag.t list;
  l_quarantined : quarantined list;
}

val load_files :
  policy:policy -> design:Mm_netlist.Design.t -> string list -> loaded
(** The load stage of {!run_files} on its own, on the calling domain:
    each file is read, parsed and resolved against [design], its mode
    named by the file's basename without the extension. It raises and
    quarantines as {!run_sources} does. *)

val merged_modes : result -> Mm_sdc.Mode.t list

val merged_files : ?annotate:bool -> result -> (string * string) list
(** The result as the exact [(filename, bytes)] pairs the CLI [merge]
    subcommand writes: [("merged_0.sdc", text); …], with provenance
    comments when [annotate]. *)

val summary_row : design_name:string -> size_cells:int -> result -> string list
(** Table-5 style row: design, size, #individual, #merged, %reduction,
    merge runtime. *)
