(** Mergeability analysis (paper section 3, Figure 2).

    Two modes can merge unless a conflict vetoes the pair: attribute or
    drive/load values beyond tolerance, or a mode-local relaxation that
    cannot be uniquified ({!Conflict_key.conflicts}, read off the two
    modes' conflict keys) — or clock blocking, a register clock live in
    one mode that a mock run of preliminary merging with clock
    refinement would sever. Mergeable pairs form the edges
    of the mergeability graph; maximal sets of mutually mergeable modes
    are found with a greedy clique cover (the paper uses a greedy
    algorithm "as the number of modes is small"). *)

type reason
(** Why a pair cannot merge: a {!Conflict_key} conflict, a blocked
    clock, or a note. It is kept unformatted and formatted only when
    read ({!reason_text}), because most of the sweep's pairs are
    rejected and their reasons are read only by the audit and
    [explain --pair]. *)

val reason_text : reason -> string

val note : string -> reason
(** A reason given as text. *)

type pair_check = { mergeable : bool; reasons : reason list }

(** Stage 1 compares the two modes' conflict keys and vetoes on
    conflicts, with no merge; stage 2 runs the full mock merge and the
    clock-blocking check on the merged context the mock merge hands
    back ({!Prelim.t.merged_ctx}), building one on [ctx_cache]'s layer
    store only when clock refinement did not converge. *)
val check_pair :
  ?tolerance:Mm_util.Toler.t ->
  ?ctx_cache:Mm_timing.Ctx_cache.t ->
  Mm_sdc.Mode.t ->
  Mm_sdc.Mode.t ->
  pair_check

type t = {
  mode_names : string array;
  adjacency : bool array array;
  cliques : int list list;
      (** disjoint cover of vertex indices; singletons included *)
  pair_reasons : (int * int, reason list) Hashtbl.t;
      (** non-mergeable pair diagnostics *)
}

val reasons : t -> int * int -> string list
(** The formatted reasons of the pair [(i, j)], [i < j]; empty for a
    mergeable pair. *)

val greedy_cliques : bool array array -> int list list
(** The paper's greedy clique cover ("as the number of modes is
    small"), which {!analyze} applies to its adjacency matrix. *)

val exact_cliques : ?limit:int -> bool array array -> int list list
(** Minimum clique cover by branch and bound; falls back to
    {!greedy_cliques} when the vertex count exceeds [limit]
    (default 20). *)

val analyze :
  ?tolerance:Mm_util.Toler.t ->
  ?ctx_cache:Mm_timing.Ctx_cache.t ->
  ?pool:Mm_util.Pool.t ->
  ?govern:Mm_util.Govern.token ->
  ?task_budget_s:float ->
  ?settle:(scope:string -> pair_check Mm_util.Govern.outcome -> pair_check) ->
  Mm_sdc.Mode.t list ->
  t
(** The O(N^2) pairwise sweep runs on [pool] (a one-job pool when not
    given) — each pair is an independent task over a
    {!Mm_timing.Ctx_cache.fork} of [ctx_cache]; results are folded in
    pair order, so the analysis is identical at every pool size. Before
    the pair tasks, one pool batch builds every mode's individual
    context into [ctx_cache] and its {!Conflict_key.t} (one task per
    mode), so no two workers build the same context; a build that
    fails there is left to the pair checks that need it. The [merge.mergeability] span carries
    [key_rejected] (pairs vetoed by the key compare) and [mock_merged]
    (pairs that ran the mock merge) as result attributes.

    The sweep runs under [govern] (with an optional per-pair
    [task_budget_s]). The analysis owns no degradation policy: a pair
    check that crashed or was abandoned is handed to
    [settle ~scope outcome], in pair order on the calling domain, and
    its verdict becomes the pair's. [scope] names the pair (["a+b"]).
    The default settles by {!Mm_util.Govern.value}: a crash re-raises
    with its original backtrace, an expired budget raises
    {!Mm_util.Govern.Cancelled}. {!Merge_flow} settles the same way
    under its strict policy and with a conservative not-mergeable
    verdict under its permissive one. *)

val clique_modes : t -> Mm_sdc.Mode.t list -> Mm_sdc.Mode.t list list
(** Map the clique cover back to mode values (same order as given to
    {!analyze}). *)

val edges : t -> (int * int) list
(** Mergeability-graph edges, for Figure-2 style reports. *)
