(** Tag-based exception matching.

    Each path exception ([set_false_path], [set_multicycle_path],
    [set_min_delay], [set_max_delay]) compiles to a small state machine:
    the [-from] restriction is evaluated when a path tag is seeded at a
    startpoint; each [-through] group advances a progress counter as the
    tag visits pins; the [-to] restriction is evaluated at the endpoint.
    A tag carries, per exception, either [dead] (cannot match) or the
    number of through-groups matched so far.

    Rise/fall restrictions: [-rise_from]/[-fall_from] on a clock select
    the launching register's active edge; on a pin they select the data
    transition at the startpoint. [-rise_to]/[-fall_to] select the data
    transition arriving at the endpoint, which callers track by
    propagating tag polarity through arc unateness (see
    {!Tgraph.unate}). Tag polarity only needs tracking when
    {!edge_sensitive} holds.

    Whole progress vectors are interned so a tag is just
    (launch clock index, state id) — the representation shared by the
    STA arrival propagation and the relation propagation of the
    mode-merging core.

    {!prepare} records which pins occur in any [-from], [-through] or
    [-to] list (no per-pin array for a kind no exception uses). A tag
    step at a pin in no through list is one load. A seed at a
    startpoint in no from list depends only on (launch clock, launch
    edge, data edge), and the exceptions matched at an endpoint in no
    to list only on (state, capture clock, data edge): both are
    memoised on that key, so the exceptions are scanned once per key,
    not once per launch or relationship.

    The interning and memo tables are the only post-{!prepare} mutable
    state of a context; they are mutex-guarded, so a prepared matcher
    (and therefore a cached {!Context.t}) may be consulted from
    multiple domains of the {!Mm_util.Pool}. State ids are stable: once
    returned, an id denotes the same progress vector forever, and the
    memos hand out the ids a scan of every exception would. *)

type t

val prepare : Tgraph.t -> Clock_prop.t -> Mm_sdc.Mode.t -> t

val n_states : t -> int
(** Number of distinct interned progress vectors so far. *)

val edge_sensitive : t -> bool
(** True when any exception carries a rise/fall restriction — callers
    then split seed tags by data polarity. *)

val initial_state :
  t ->
  start_pins:Mm_netlist.Design.pin_id list ->
  launch_clock:int option ->
  ?launch_edge:Mm_netlist.Lib_cell.edge ->
  ?data_edge:Mm_sdc.Mode.edge_sel ->
  unit ->
  int
(** Seed a tag at a startpoint. [start_pins] are the aliases of the
    startpoint (a register's clock pin and outputs, or a port pin);
    [launch_edge] is the launching register's active edge (rising when
    unknown); [data_edge] is the polarity branch of this tag
    ([Any_edge] when polarity is untracked). *)

val advance : t -> int -> Mm_netlist.Design.pin_id -> int
(** [advance t state pin] returns the state after the tag visits [pin]
    (O(1) when the pin occurs in no through list). *)

val matches_at :
  t ->
  int ->
  end_pins:Mm_netlist.Design.pin_id list ->
  capture_clock:int option ->
  ?data_edge:Mm_sdc.Mode.edge_sel ->
  unit ->
  Mm_sdc.Mode.exc list
(** Exceptions fully matched by a tag arriving at an endpoint with the
    given data polarity, in exception order. Readers get them through
    {!Context.fold_relationships}, per timing relationship. *)

val progress : t -> int -> int array
(** The progress vector a state id denotes (a copy): per exception, -1
    when the tag cannot match it, else the number of its through groups
    matched so far. For differential tests. *)
