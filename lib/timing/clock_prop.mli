(** Clock propagation through the clock network.

    Each mode clock is swept from its source pins through enabled
    combinational and net arcs (never through register launch arcs) in
    topological order, honouring [set_clock_sense -stop_propagation]
    constraints. The result records, per pin, the set of clocks present
    (as a bitmask over the mode's clock order). It holds no times: the
    insertion delays of propagated clocks are STA's ({!Sta}), swept
    over these masks.

    This is the machinery behind the paper's clock refinement (3.1.8):
    comparing per-node clock sets between merged and individual modes. *)

type t

exception Too_many_clocks of int

val run : Tgraph.t -> Const_prop.t -> Mm_sdc.Mode.t -> t
(** @raise Too_many_clocks beyond 62 clocks (bitmask width). *)

val n_clocks : t -> int
val clock_name : t -> int -> string
val clock_index : t -> string -> int option
val mask_at : t -> Mm_netlist.Design.pin_id -> int
val clocks_at : t -> Mm_netlist.Design.pin_id -> string list
val has_clock : t -> Mm_netlist.Design.pin_id -> int -> bool

val fold_indices : int -> (int -> 'a -> 'a) -> 'a -> 'a
(** [fold_indices mask f init] folds [f] over the clock indices set in
    [mask] like [List.fold_right] over them in ascending order, so
    [fold_indices mask List.cons []] lists them ascending. *)

val mask_of_clock_names : t -> string list -> int
(** Bitmask of the named clocks (unknown names ignored). *)

val extra_frontier :
  t ->
  Tgraph.t ->
  through:(int -> bool) ->
  merged:(Mm_netlist.Design.pin_id -> int) ->
  (t * (string -> string option) * (Mm_netlist.Design.pin_id -> int)) list ->
  (string * Mm_netlist.Design.pin_id) list
(** The extra-clock frontier shared by the clock refinements of
    sections 3.1.8 and 3.2. [merged] gives per-pin clock masks over [t]
    (the merged mode's clocks); each individual mode gives its clocks,
    the renaming of its clock names into [t]'s (unmapped when [None])
    and its per-pin masks. A clock is extra at a pin when [merged] has
    it but no individual mode does; the result is every (clock, pin)
    where it is extra but not extra at the source of any [through] arc
    into the pin, in ascending (pin, clock index) order. *)
