(** The 3-pass timing-relationship comparison (paper section 3.2).

    Pass 1 compares relation sets per endpoint; ambiguous endpoints go
    to pass 2, which compares per (startpoint, endpoint) pair; ambiguous
    pairs go to pass 3, which walks the reconvergent cone between the
    pair and compares per through-pin. Each mismatch yields a fix — an
    exception to add to the merged mode so it stops timing paths no
    individual mode times.

    Pass 3 explores each pair breadth-first from the startpoint's
    fanout, descending past a through-pin only while its buckets stay
    ambiguous, and visits at most 2,000 through-pins per pair. A pair
    still unexplored when that budget runs out is reported in
    [undecided], never counted as matching.

    Passes 2 and 3 work inside one endpoint's fan-in cone, and their
    cone queries cost that cone, not the design: cones are walked into
    mark buffers that the run's {!cache} owns, and start- and
    endpoints are looked up by pin.

    Clock names of individual modes are mapped to merged-mode names via
    the renaming supplied with each individual context. *)

type verdict = Match | Mismatch | Ambiguous

val verdict_to_string : verdict -> string
(** ["M"], ["X"], ["A"] as in the paper's tables. *)

(** One comparison bucket: states are (setup, hold) pairs projected from
    the relation sets of both sides. *)
type bucket = {
  bk_launch : string;
  bk_capture : string;
  bk_edge : Mm_sdc.Mode.edge_sel;
      (** data polarity at the endpoint; [Any_edge] unless rise/fall
          restricted exceptions are in scope *)
  bk_ind : (Mm_timing.Constraint_state.t * Mm_timing.Constraint_state.t) list;
  bk_mrg : (Mm_timing.Constraint_state.t * Mm_timing.Constraint_state.t) list;
  bk_verdict : verdict;
}

type pass1_row = { p1_ep : Mm_netlist.Design.pin_id; p1_bucket : bucket }

type pass2_row = {
  p2_sp : Mm_netlist.Design.pin_id;
  p2_ep : Mm_netlist.Design.pin_id;
  p2_bucket : bucket;
}

type pass3_row = {
  p3_sp : Mm_netlist.Design.pin_id;
  p3_through : Mm_netlist.Design.pin_id;
  p3_ep : Mm_netlist.Design.pin_id;
  p3_bucket : bucket;
}

(** Structured provenance for a fix: which pass produced it, the
    comparison point (endpoint, startpoint–endpoint pair, or
    reconvergence through-pin triple), the clock scoping of the
    mismatching bucket, and the effective setup/hold states on both
    sides. This is what the audit report and [modemerge explain] show
    as the reason a refinement false path exists. *)
type evidence = {
  ev_pass : int;  (** 1, 2 or 3 *)
  ev_startpoint : string option;  (** pin name; [None] in pass 1 *)
  ev_through : string option;  (** reconvergence pin name; pass 3 only *)
  ev_endpoint : string;  (** pin name *)
  ev_launch : string option;
      (** launch clock, when the fix is scoped to one launch bucket *)
  ev_capture : string option;
      (** capture clock, when additionally scoped per bucket *)
  ev_ind : string;  (** individual-union effective state, [setup/hold] *)
  ev_mrg : string;  (** merged-mode effective state, [setup/hold] *)
}

type fix = {
  fix_exc : Mm_sdc.Mode.exc;
  fix_reason : string;
  fix_evidence : evidence;
}

type result = {
  pass1 : pass1_row list;
  pass2 : pass2_row list;
  pass3 : pass3_row list;
  fixes : fix list;
  unsound : string list;
      (** sign-off accuracy violations: the merged mode fails to check,
          or relaxes, a path bundle some individual mode times — a
          correct merge must leave this empty *)
  pessimism : string list;
      (** the merged mode checks a bundle more tightly than the
          individual-mode union requires — safe, but costs QoR
          conformity (the paper's < 100% Table-6 entries) *)
  undecided : (Mm_netlist.Design.pin_id * Mm_netlist.Design.pin_id) list;
      (** (startpoint, endpoint) pairs pass 3 left undecided: their
          exploration still had through-pins queued when it ran out of
          budget, so a mismatch may remain unfound. Pairs in pass order. *)
}

type side = {
  ctx : Mm_timing.Context.t;
  rename : string -> string;
      (** individual-mode clock name -> merged-mode clock name *)
}

type cache
(** Reusable state for repeated {!run}s against the same individual
    sides and an exceptions-only-growing merged mode (the refinement
    loop): the sides' pass-1 relation sets are computed once; the
    merged side's update incrementally, re-propagating only the
    endpoints newly appended exceptions can change
    ({!Relation_prop.endpoint_relations_cached}); and pass 1 keeps each
    endpoint's judgement (rows, fixes, unsound and pessimism entries),
    so a later pass re-judges only those endpoints. *)

val create_cache : unit -> cache

val run :
  ?cache:cache -> individual:side list -> merged:Mm_timing.Context.t ->
  unit -> result
(** Every run goes through a {!cache}: without [cache] it takes a fresh
    {!create_cache}, so a one-shot comparison ({!Equiv.check},
    [modemerge check]) judges with the code refinement's repeated runs
    use, and results are identical with and without [cache]. A cache
    must only be shared across runs whose individual sides are fixed and
    whose merged modes differ solely by appended exceptions.

    Pass 1 packs each endpoint's relation set per side into a sorted
    array of int keys, one per (launch, capture, polarity, setup, hold)
    relation in the merged clock namespace: a side renames its clocks
    once, not per relation, and endpoints with equal sets share one
    judgement. The [compare.pass1] span's [rejudged] attribute counts
    the endpoints a pass judged.

    Besides the result, each run accumulates the stable coverage
    counters [compare.endpoints_visited], [compare.endpoints_pruned]
    (pass-1 endpoints that never escalated to pass 2),
    [compare.pairs_compared] (pass-2 startpoint/endpoint pairs with
    relations on either side) and [compare.reconv_points] (pass-3
    through-pins whose relation sets were bucketed) in {!Mm_util.Metrics}. *)

val is_clean : result -> bool
(** No mismatches anywhere, no unsoundness and no pessimism: the strict
    two-sided equivalence of paper section 2. *)

val states_to_string :
  (Mm_timing.Constraint_state.t * Mm_timing.Constraint_state.t) list -> string
(** Setup-state projection in the paper's table style, e.g. ["FP, V"]. *)
