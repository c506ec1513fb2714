(** The tag algebra shared by STA arrival propagation and relationship
    propagation.

    A tag is (launch clock, exception-progress state, data polarity):
    an STA arrival tag without the arrival time, which is exactly what a
    timing relationship is before it meets a capture clock. Both engines
    pack tags into one int key, seed them at the same launch points and
    advance them through an arc with the same step, so the relationship
    engine's launch semantics cannot drift from STA's. *)

type key = int
(** Packed (clock index or -1, exception state, polarity). *)

val make : ?edge:Mm_sdc.Mode.edge_sel -> int -> int -> key
(** [make ~edge clock state]; [edge] defaults to [Any_edge]. *)

val clock : key -> int
val state : key -> int
val edge : key -> Mm_sdc.Mode.edge_sel

val step :
  Excmatch.t -> Tgraph.unate -> Mm_netlist.Design.pin_id -> key -> (key -> unit) -> unit
(** [step excs unate dst key f]: the tags [key] becomes on an arc into
    [dst] — the exception state advanced at [dst], the polarity carried
    through the arc's unateness ([Any_edge] stays [Any_edge]; a
    non-unate arc yields rise then fall). *)

val carries : Context.t -> int -> bool
(** Data tags cross the enabled arcs that do not end at a register
    clock pin: launch arcs carry only the tags seeded there. *)

(** {1 Launch points} *)

type launch = {
  launch_pin : Mm_netlist.Design.pin_id;  (** where the tags are seeded *)
  launch_clock : int;  (** clock index *)
  launch_aliases : Mm_netlist.Design.pin_id list;
      (** startpoint pins a -from matches *)
  launch_edge : Mm_netlist.Lib_cell.edge;
      (** active edge of the launching register, or the input delay's
          reference edge (for -rise_from clock restrictions) *)
  input_delay : float option;
      (** the set_input_delay value at a port; [None] at a register *)
}

val launches : Context.t -> Tgraph.startpoint -> launch list
(** One launch per clock at an active register clock pin (ascending
    clock index), one per clocked input delay of an active port (in
    constraint order). *)

val all_launches : Context.t -> launch list
(** {!launches} of every startpoint, in graph startpoint order. *)

val seed : Context.t -> launch -> (key -> unit) -> unit
(** The tags seeded at [launch_pin]: one per polarity (rise and fall
    when the mode is edge-sensitive, else [Any_edge]), each with the
    initial exception state advanced at the launch pin. *)

(** {1 The tag store}

    The one per-pin store of STA arrivals, clock insertion delays and
    relation tags: per pin a chain of entries in flat arrays, each a key
    with a min/max value pair, oldest first (of two tied setup slacks,
    STA reports the first tag's capture period). *)

module Store : sig
  type t

  val create : int -> t
  (** An empty store for a graph of this many pins. *)

  val clear : t -> unit
  (** Empty the store, in time proportional to the entries it holds. *)

  val length : t -> int
  (** The distinct (pin, key) entries added since {!create} or {!clear}. *)

  val add : t -> Mm_netlist.Design.pin_id -> int -> float -> float -> unit
  (** [add t pin key vmin vmax]: a new entry, or the pin's entry for
      [key] widened to the min of the mins and the max of the maxes. *)

  val has_tags : t -> Mm_netlist.Design.pin_id -> bool

  val iter :
    t -> Mm_netlist.Design.pin_id -> (int -> float -> float -> unit) -> unit
  (** The pin's entries, oldest first; [f] may add at other pins. *)

  val iter_keys : t -> Mm_netlist.Design.pin_id -> (int -> unit) -> unit
  (** {!iter} without the values. *)

  val find : t -> Mm_netlist.Design.pin_id -> int -> (float * float) option
  val tags : t -> Mm_netlist.Design.pin_id -> (int * float * float) list
end

val sweep :
  Store.t ->
  Excmatch.t ->
  Tgraph.unate ->
  src:Mm_netlist.Design.pin_id ->
  dst:Mm_netlist.Design.pin_id ->
  float ->
  float ->
  unit
(** [sweep st excs unate ~src ~dst dmin dmax]: every entry held at
    [src], {!step}ped across an arc into [dst], widens [dst]'s entry for
    the stepped key to its min plus [dmin] and its max plus [dmax]
    ({!Store.add}'s min/max, updated in place). The arrival sweep of
    STA and the relation sweep both step a pin's tags this way. *)
