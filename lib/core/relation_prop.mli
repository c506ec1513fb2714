(** Relation-tag propagation over the timing graph.

    The qualitative counterpart of STA arrival propagation: the same
    {!Mm_timing.Tag} keys, launches and arc step, without arrival
    times. Used for
    pass 1/2/3 relationship comparison, for the data-network clock
    refinement of section 3.2, and for cone restriction. *)

type tagsets
(** Per-pin sets of (clock index, exception state id). *)

val create_scratch : Mm_timing.Context.t -> tagsets
(** A reusable tag buffer; pass it as [scratch] to amortise the per-pin
    array across many cone-restricted propagations. *)

val cone_order : Mm_timing.Context.t -> bool array -> Mm_netlist.Design.pin_id list
(** The cone's pins in topological order — pass as [order] so the sweep
    only visits them. *)

val propagate :
  Mm_timing.Context.t ->
  seeds:Mm_timing.Tag.launch list ->
  ?within:bool array ->
  ?order:Mm_netlist.Design.pin_id list ->
  ?scratch:tagsets ->
  unit ->
  tagsets
(** Seed the launches' tags ({!Mm_timing.Tag.seed}) and propagate them
    through enabled arcs in topological order. [within] restricts
    propagation to marked pins (cone restriction); [order] limits the
    sweep to a precomputed cone pin list; [scratch] reuses a buffer (the
    result aliases it — read before the next call). *)

val tags_at :
  tagsets -> Mm_netlist.Design.pin_id -> (int * int * Mm_sdc.Mode.edge_sel) list
(** (clock index, state id, data polarity) triples present at a pin.
    Polarity is [Any_edge] unless the mode is edge-sensitive. *)

val propagate_raw :
  Mm_timing.Context.t ->
  tag_seeds:
    (Mm_netlist.Design.pin_id * (int * int * Mm_sdc.Mode.edge_sel) list) list ->
  ?within:bool array ->
  ?order:Mm_netlist.Design.pin_id list ->
  ?scratch:tagsets ->
  unit ->
  tagsets
(** Propagate pre-formed (clock, state) tags from the given pins —
    the second hop of pass-3 "paths through pin t" queries. *)

val relations_at :
  Mm_timing.Context.t -> tagsets -> Mm_timing.Tgraph.endpoint -> Relation.t list
(** Convert the tags at an endpoint into timing relationships, one per
    (tag, capture clock) combination, skipping exclusive clock pairs. *)

val endpoint_relations :
  Mm_timing.Context.t -> (Mm_netlist.Design.pin_id * Relation.t list) list
(** Pass-1 input: relations at every endpoint of the design under this
    context's mode, keyed by endpoint pin, in graph endpoint order. *)

type ep_cache
(** Cache for {!endpoint_relations_cached}: remembers the exception
    list and per-endpoint relations of the last call. *)

val create_ep_cache : unit -> ep_cache

val endpoint_relations_cached :
  ep_cache ->
  Mm_timing.Context.t ->
  (Mm_netlist.Design.pin_id * Relation.t list) list
(** Like {!endpoint_relations}, but when the context's exception list
    extends the cached one (the refinement-loop pattern — iterations
    only append exceptions to an otherwise identical mode), only the
    endpoints inside the new exceptions' from/through/to scope are
    re-propagated (restricted to their backward cone); the rest reuse
    the cached lists. Falls back to a full recompute whenever the
    prefix property does not hold. Results are identical to
    {!endpoint_relations} either way. *)

val data_clock_masks : Mm_timing.Context.t -> int array
(** Per pin, the bitmask of launch clocks whose data can reach it —
    the "clocks at any node in the data network" of section 3.2. *)

val forward_cone :
  Mm_timing.Context.t -> Mm_netlist.Design.pin_id list -> bool array
(** Pins reachable through enabled arcs from the given pins. *)

val backward_cone :
  Mm_timing.Context.t -> Mm_netlist.Design.pin_id list -> bool array
