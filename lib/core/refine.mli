(** Refinement of the preliminary merged mode (paper section 3.2).

    Two steps:

    1. Data-network clock refinement — launch clocks present at any
       data-network node in the merged mode but in no individual mode
       are cut with [set_false_path -from clock -through pin] at the
       earliest such node (the paper's CSTR6 of Constraint Set 5).
    2. 3-pass timing-relationship comparison ({!Compare}), whose fixes
       are folded into the merged mode. The compare/fix loop repeats
       until clean or the iteration bound is hit — by construction the
       final comparison doubles as the validation of the merged mode.

    Requires the individual modes and the clock renaming from
    {!Prelim}. Step 1 analyses the prelim's own merged context
    ({!Prelim.t.merged_ctx}) when it has one, and the compare/fix loop
    derives every later context from it, so a refinement run builds no
    merged context of its own. *)

(** Why a refinement exception was added: a step-1 data-network clock
    cut, or a comparison-pass fix (with its full {!Compare.evidence}).
    A coalesced exception carries one origin per contributing fix. *)
type added_origin =
  | From_data_clock of string * Mm_netlist.Design.pin_id
      (** (merged clock, frontier pin) *)
  | From_fix of Compare.fix

type t = {
  refined : Mm_sdc.Mode.t;
  refined_ctx : Mm_timing.Context.t option;
      (** analysis context matching [refined] — reusable by downstream
          stages (e.g. {!Equiv.check}) instead of rebuilding one.
          {!Merge_flow} groups keep the result with this field stripped
          to [None], so a group does not pin a context's arrays for the
          rest of the run *)
  data_clock_fixes : (string * Mm_netlist.Design.pin_id) list;
      (** (merged clock, frontier pin) false paths from step 1 *)
  added_exceptions : Mm_sdc.Mode.exc list;
      (** all exceptions added across both steps *)
  added_lineage : (Mm_sdc.Mode.exc * added_origin list) list;
      (** [added_exceptions] in the same order, each paired with every
          origin that contributed to it (after coalescing) — the
          provenance source for refinement false paths *)
  final_compare : Compare.result;
      (** the last comparison, of [refined] against every individual
          mode — clean iff the merge is equivalent; the merge flow's
          equivalence verdict is read from it ({!Equiv.of_compare}) *)
  iterations : int;
}

val run :
  ?ctx_cache:Mm_timing.Ctx_cache.t ->
  prelim:Prelim.t ->
  individual:Mm_sdc.Mode.t list ->
  unit ->
  t
(** The compare/fix loop runs at most 4 iterations. The individual
    contexts come from [ctx_cache] (a fresh cache when not given), and
    so does the merged one when [prelim] carries none. *)
