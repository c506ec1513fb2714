(** Per-(design, mode) analysis context.

    Bundles the timing graph, constant propagation, clock propagation
    and the prepared exception matcher — everything both the STA engine
    and the mode-merging relation comparison need. A context carries no
    delays: the graph is the design's shared compiled arena, and
    clock propagation records which clocks reach a pin, not when. STA
    derives arc delays, pin loads and clock insertion delays from the
    context when it analyses a mode ({!Sta.view}). *)

type t = {
  design : Mm_netlist.Design.t;
  mode : Mm_sdc.Mode.t;
  graph : Tgraph.t;
  consts : Const_prop.t;
  clocks : Clock_prop.t;
  excs : Excmatch.t;
  exclusive : int array;
      (** per clock index: bitmask of clocks it must not be timed
          against (from set_clock_groups) *)
}

val create : Mm_netlist.Design.t -> Mm_sdc.Mode.t -> t
(** Build the context from scratch; counted in the
    [timing.context_builds] metric. *)

val of_layers :
  Mm_netlist.Design.t -> Mm_sdc.Mode.t -> Const_prop.t -> Clock_prop.t -> t
(** [of_layers design mode consts clocks] builds the context on layers
    already computed for [mode] (a {!Ctx_cache} store's): only the
    exception matcher and clock-group exclusivity are prepared. Counted
    in [timing.context_builds] like {!create}. *)

val with_exceptions : t -> Mm_sdc.Mode.t -> t
(** [with_exceptions t mode] swaps [mode] into the context, re-preparing
    only the exception matcher and clock-group exclusivity; the timing
    graph, constant propagation and clock propagation are reused as-is.
    Sound only when [mode] agrees with [t.mode] on everything those
    layers read: cases, disables and clock definitions — the refinement
    loop's situation, where iterations differ only by appended
    exceptions. Environment constraints (set_load, set_drive,
    set_input_transition) may differ: only delays read them, and STA
    derives those from the context's mode. *)

val clocks_exclusive : t -> int -> int -> bool

val find_clock : t -> int -> Mm_sdc.Mode.clock
(** Clock record by propagation index. *)

val capture_clocks_of_endpoint : t -> Tgraph.endpoint -> int list
(** Clock indices that can capture at this endpoint: the clocks
    reaching a register's clock pin, or the clocks referenced by the
    output delays on a port. *)

val fold_relationships :
  t ->
  Tgraph.endpoint ->
  int ->
  int ->
  Mm_sdc.Mode.edge_sel ->
  (int -> Mm_sdc.Mode.exc list -> 'a -> 'a) ->
  'a ->
  'a
(** The timing relationships at an endpoint, the one place they are
    formed: [fold_relationships t ep] works out the endpoint's capture
    clocks and the pins by which exceptions address it (its data pin or
    port pin); applied to a tag's launch clock, exception state and data
    polarity, it folds [f cj excs] over every capture clock [cj] not
    exclusive with the launch clock, [excs] being the exceptions the tag
    matches there. A negative launch clock (an unclocked tag) forms no
    relationship. STA's checks and the relation sets of the mode-merging
    comparison both read it. *)
