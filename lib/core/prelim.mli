(** Preliminary mode merging (paper section 3.1).

    Builds the superset mode from N individual modes:

    - 3.1.1 union of clocks (duplicate detection by source + waveform,
      conflict renaming with unique suffixes, two-way clock map)
    - 3.1.2 tolerance-merged clock attributes (min of mins, max of maxs)
    - 3.1.3 union of external delays
    - 3.1.4 intersection of case_analysis (conflicts dropped, to be
      compensated by refinement)
    - 3.1.5 intersection of disable_timing
    - 3.1.6 tolerance-checked drive/load constraints
    - 3.1.7 derived clock exclusivity from per-mode coexistence
    - 3.1.8 clock-network refinement (inferred disable_timing and
      set_clock_sense -stop_propagation)
    - 3.1.9/3.1.10 intersection + uniquification of exceptions

    The result guarantees the superset property: any path timed in an
    individual mode is timed in the merged mode. The merged mode may
    temporarily time extra paths; {!Refine} removes them. *)

type t = {
  merged : Mm_sdc.Mode.t;
  merged_ctx : Mm_timing.Context.t option;
      (** analysis context of [merged], as built by the last round of
          clock refinement — reusable by {!Mergeability} and {!Refine}
          instead of rebuilding it. [None] when refinement stopped at
          [max_refine_iters] (no context was built for the returned
          mode). {!Merge_flow} groups keep the prelim with this field
          stripped to [None], so a group does not pin a context's
          arrays for the rest of the run *)
  clock_map : (string * string, string) Hashtbl.t;
      (** (mode name, individual clock) -> merged clock *)
  dropped_cases : (string * Mm_netlist.Design.pin_id * bool) list;
      (** (mode, pin, value) case statements dropped for conflicts *)
  dropped_exceptions : (string * Mm_sdc.Mode.exc) list;
      (** false paths that could not be uniquified *)
  uniquified : (string * Mm_sdc.Mode.exc) list;
      (** exceptions rewritten with clock restrictions (3.1.10) *)
  inferred_disables : Mm_netlist.Design.pin_id list;
      (** disable_timing added by clock refinement *)
  inferred_senses : (string * Mm_netlist.Design.pin_id) list;
      (** (merged clock, pin) stop-propagation constraints added *)
  derived_groups : Mm_sdc.Mode.clock_group list;
      (** clock groups derived from exclusivity (3.1.7), as opposed to
          groups inherited from the source modes — the provenance layer
          attributes the two differently *)
  conflicts : string list;
      (** tolerance/value incompatibilities ({!Conflict_key.conflicts}):
          non-empty means the modes should not have been merged
          (mergeability veto) *)
}

val rename_of : t -> string -> string -> string
(** [rename_of t mode_name clock] maps an individual-mode clock to its
    merged-mode name (identity when unmapped). *)

val merge :
  ?tolerance:Mm_util.Toler.t ->
  ?max_refine_iters:int ->
  ?ctx_cache:Mm_timing.Ctx_cache.t ->
  ?uniquify:bool ->
  name:string ->
  Mm_sdc.Mode.t list ->
  t
(** Merge the modes (at least one). The clock-network refinement loop
    re-runs clock propagation until no extra clocks remain or
    [max_refine_iters] (default 5) is reached. [ctx_cache] shares
    per-mode analysis contexts (keyed by mode name) across calls —
    the mergeability pass performs O(N^2) mock merges and reuses it —
    and each refinement round's merged context is built on its layer
    store ({!Mm_timing.Ctx_cache.build}), so mock merges that reach the
    same cases, disables and clocks share their layers.
    [uniquify] (default true) enables exception uniquification
    (3.1.10); disabling it is an ablation switch — mode-local false
    paths are then always dropped and mode-local relaxations become
    conflicts. *)
