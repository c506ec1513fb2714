(** Equivalence checking between a merged mode and its individual modes.

    Implements the paper's definition (section 2) with the sign-off
    reading of its two directions:

    - {b Optimism} — the merged mode times a path bundle no individual
      mode times, or relaxes a bundle's requirement. This is a sign-off
      accuracy violation and the check fails. Operationally: the final
      comparison still proposes fixes.
    - {b Pessimism} — the merged mode constrains a bundle that some
      individual mode times (e.g. a refinement false path whose SDC
      granularity also covers a valid capture). This is sign-off safe;
      it shows up as a QoR conformity loss exactly as in the paper's
      Table 6 (conformity < 100%). Reported but does not fail the
      check.

    The verdict is a reading of one three-pass comparison
    ({!of_compare}). The merge flow takes it from refinement's final
    comparison ({!Refine.t.final_compare}), which already compared the
    final merged mode against every member; {!check} runs a fresh
    comparison for a merged mode that comes from elsewhere (the
    [modemerge check] subcommand, benches, tests). *)

type report = {
  equivalent : bool;
      (** no optimism: the merged mode times exactly the union (up to
          pessimism) *)
  strictly_equivalent : bool;
      (** additionally no pessimism: the two-sided definition holds
          exactly *)
  mismatches : int;   (** mismatch buckets across the passes *)
  remaining_fixes : int;
      (** fixes the comparison would still add — optimism evidence *)
  ambiguous_final : int;
      (** (startpoint, endpoint) pairs pass 3 left undecided because
          their exploration ran out of budget
          ({!Compare.result.undecided}); any makes the merge
          non-equivalent, as a pair not compared to the end may hide a
          mismatch. Pass 3 records no ambiguous bucket otherwise: it
          explores past each one until the endpoint decides it. *)
  unsound : string list;
      (** required checks the merged mode relaxes or drops — must be
          empty for a sign-off-accurate merge *)
  pessimistic : string list;  (** over-constraint diagnostics *)
  compare_result : Compare.result;
}

val of_compare : Compare.result -> report
(** The verdict a comparison of the merged mode against its individual
    modes implies. Pure: runs no comparison and records no span. *)

val check :
  ?ctx_cache:Mm_timing.Ctx_cache.t ->
  ?merged_ctx:Mm_timing.Context.t ->
  individual:Mm_sdc.Mode.t list ->
  rename:(string -> string -> string) ->
  merged:Mm_sdc.Mode.t ->
  unit ->
  report
(** Compare [merged] against [individual] from scratch (no refinement
    cache) inside a [merge.equiv] span, then {!of_compare}.
    [rename mode_name clock] maps individual clocks to merged names
    (use {!Prelim.rename_of}). [ctx_cache] supplies the individual
    contexts, keyed by mode name; without it each individual mode gets
    a context of its own, so same-named modes stay apart.
    [merged_ctx] supplies a ready-made
    context for [merged] (e.g. {!Refine.t.refined_ctx}); it is used
    only when its mode is physically the [merged] argument, otherwise
    a context is built, on [ctx_cache]'s layer store when given. *)
