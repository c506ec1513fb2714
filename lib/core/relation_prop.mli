(** Relation-tag propagation over the timing graph.

    The qualitative counterpart of STA arrival propagation: the same
    {!Mm_timing.Tag} keys, launches, arc step and tag store, without
    arrival times. Used for
    pass 1/2/3 relationship comparison, for the data-network clock
    refinement of section 3.2, and for cone restriction. *)

(** {1 Cones}

    A cone is the set of pins a walk along enabled arcs visits: its
    pins in topological order plus a membership test. A walk costs the
    cone, not the design. It marks pins in a {!marks} buffer that
    belongs to the caller — a {!Compare.run}'s cache, fresh or kept
    for a refinement run — and takes a fresh epoch of that buffer, so nothing needs
    clearing, also after a walk that cancellation abandoned. *)

type marks
(** A per-pin mark buffer, sized for one compiled graph. Contexts never
    hold one: {!Mm_timing.Ctx_cache} shares contexts across domains,
    and a buffer serves one walk at a time. *)

val create_marks : Mm_timing.Tgraph.t -> marks

type cone
(** Valid until the next walk into its buffer; a stale cone raises
    [Invalid_argument] when read. Live cones need one buffer each. *)

val backward_cone :
  marks -> Mm_timing.Context.t -> Mm_netlist.Design.pin_id list -> cone
(** The given pins and every pin that reaches one of them through
    enabled arcs. *)

val forward_cone :
  marks ->
  ?within:cone ->
  Mm_timing.Context.t ->
  Mm_netlist.Design.pin_id list ->
  cone
(** The given pins and every pin reachable from them through enabled
    arcs, entering only pins of [within]. For a backward cone [within]
    this is exactly the intersection of the two cones, since a path to
    a pin of a backward cone stays inside it. [within] may live in the
    same buffer; the walk then makes it stale. *)

val in_cone : cone -> Mm_netlist.Design.pin_id -> bool
val cone_pins : cone -> Mm_netlist.Design.pin_id list
(** The cone's pins in topological order ([Tgraph.topo_pos]). *)

val positions :
  Mm_timing.Tgraph.t -> ('a -> Mm_netlist.Design.pin_id) -> 'a array -> int array
(** Per pin of the graph, the position in [items] of the item [pin_of]
    maps to it, or -1: a lookup by pin for items whose pins are
    distinct, such as the graph's startpoints (a register clock pin or
    an input port) or endpoints (a register data pin or an output
    port). *)

(** {1 Propagation}

    Each propagation empties [scratch] and returns it (read it before
    the next call), or returns a fresh store without one. *)

val propagate :
  Mm_timing.Context.t ->
  seeds:Mm_timing.Tag.launch list ->
  ?cone:cone ->
  ?scratch:Mm_timing.Tag.Store.t ->
  unit ->
  Mm_timing.Tag.Store.t
(** Seed the launches' tags ({!Mm_timing.Tag.seed}) and propagate them
    through the arcs that carry them ({!Mm_timing.Tag.carries}) in
    topological order. [cone] restricts seeds and propagation to its
    pins and sweeps only them; without it the sweep covers the whole
    design. *)

val propagate_from :
  Mm_timing.Context.t ->
  Mm_timing.Tag.Store.t ->
  Mm_netlist.Design.pin_id ->
  ?cone:cone ->
  ?scratch:Mm_timing.Tag.Store.t ->
  unit ->
  Mm_timing.Tag.Store.t
(** [propagate_from ctx from pin] propagates onward the tags [from]
    holds at [pin] — the second hop of pass-3 "paths through pin t"
    queries. *)

val fold_relations :
  Mm_timing.Context.t ->
  Mm_timing.Tag.Store.t ->
  Mm_timing.Tgraph.endpoint ->
  (int ->
  int ->
  Mm_sdc.Mode.edge_sel ->
  Mm_timing.Constraint_state.t ->
  Mm_timing.Constraint_state.t ->
  'a ->
  'a) ->
  'a ->
  'a
(** Fold over the timing relationships at an endpoint, one per (tag,
    capture clock) combination that {!Mm_timing.Context.fold_relationships}
    forms, as (launch clock index, capture clock index, data polarity,
    setup state, hold state). Repeats are possible; no order is
    promised. *)

val relations_at :
  Mm_timing.Context.t ->
  Mm_timing.Tag.Store.t ->
  Mm_timing.Tgraph.endpoint ->
  Relation.t list
(** {!fold_relations} as a normalized relation list. *)

val endpoint_map :
  Mm_timing.Context.t ->
  ?scratch:Mm_timing.Tag.Store.t ->
  (Mm_timing.Tag.Store.t -> Mm_timing.Tgraph.endpoint -> 'a) ->
  'a array
(** Propagate every launch of the design under this context's mode
    (into [scratch], as {!propagate} does) and read each endpoint's
    tags with the given function, in graph endpoint order. *)

val endpoint_relations :
  ?scratch:Mm_timing.Tag.Store.t ->
  Mm_timing.Context.t ->
  (Mm_netlist.Design.pin_id * Relation.t list) list
(** Pass-1 input: relations at every endpoint of the design under this
    context's mode, keyed by endpoint pin, in graph endpoint order,
    swept into [scratch] as {!endpoint_map} does. *)

type 'a ep_cache
(** Cache for {!endpoint_relations_cached}: remembers the exception
    list and per-endpoint values of the last call. *)

val create_ep_cache : unit -> 'a ep_cache

val endpoint_relations_cached :
  'a ep_cache ->
  scratch:Mm_timing.Tag.Store.t ->
  Mm_timing.Context.t ->
  (Mm_timing.Tag.Store.t -> Mm_timing.Tgraph.endpoint -> 'a) ->
  'a array * int list option
(** Like {!endpoint_map} into [scratch], plus the positions (in graph
    endpoint order, ascending) of the endpoints this call recomputed;
    [None] when it recomputed every endpoint. The value function must give the same
    value on every call for the same tags at an endpoint.

    When the context's exception list extends the cached one (the
    refinement-loop pattern — iterations only append exceptions to an
    otherwise identical mode), only the endpoints the new exceptions
    can change are re-propagated, restricted to their backward cone;
    the rest keep their cached values. An exception whose [-to] names
    only pins and instances changes exactly the endpoints at those pins
    and needs no walk ([Excmatch] tests [-to] pins only at the
    endpoint's own pin). Any other exception changes the endpoints in
    the forward cone of its last [-through] group, or without one of
    its [-from] points, that match its [-to] points. The cache owns the
    mark buffer those cones are walked into. Falls back to a full
    recompute whenever the prefix property does not hold. Values are
    those of {!endpoint_map} either way. The returned array is shared
    with the cache: do not mutate it. *)

val data_clock_masks : Mm_timing.Context.t -> int array
(** Per pin, the bitmask of launch clocks whose data can reach it over
    the arcs that carry data tags — the "clocks at any node in the data
    network" of section 3.2. *)

