(** Resolved timing modes.

    A mode is one SDC constraint set resolved against a design: object
    queries expanded to pin/instance/clock ids, clock attributes folded
    into per-clock records. This is the currency consumed by the timing
    engine and the mode-merging core, and it can be serialised back to
    SDC via {!to_commands}. *)

type clock = {
  clk_name : string;
  period : float;
  waveform : float * float;  (** rise, fall edge times within the period *)
  sources : Mm_netlist.Design.pin_id list;  (** sorted; empty = virtual *)
  generated : generated option;
}

and generated = {
  master : string;
  g_divide : int;
  g_multiply : int;
  g_invert : bool;
}

(** Per-clock attribute record accumulated from set_clock_latency /
    uncertainty / transition / propagated commands. *)
type clock_attr = {
  src_latency_min : float option;
  src_latency_max : float option;
  net_latency_min : float option;
  net_latency_max : float option;
  uncertainty_setup : float option;
  uncertainty_hold : float option;
  transition_min : float option;
  transition_max : float option;
  propagated : bool;
}

val empty_attr : clock_attr

type io_delay = {
  iod_input : bool;
  iod_pin : Mm_netlist.Design.pin_id;  (** the port pin *)
  iod_clock : string option;
  iod_clock_fall : bool;
  iod_minmax : Ast.minmax;
  iod_value : float;
  iod_add : bool;
}

(** Startpoints/endpoints of a resolved exception term. *)
type point =
  | P_pin of Mm_netlist.Design.pin_id
  | P_clock of string
  | P_inst of Mm_netlist.Design.inst_id

type exc_kind =
  | False_path
  | Multicycle of { mult : int; start : bool }
  | Min_delay of float
  | Max_delay of float

(** Edge restriction on an exception's -from/-to side
    ([-rise_from], [-fall_to], ...). *)
type edge_sel = Any_edge | Rise_edge | Fall_edge

type exc = {
  exc_kind : exc_kind;
  exc_setup : bool;
  exc_hold : bool;
  exc_from : point list option;
  exc_from_edge : edge_sel;
  exc_through : Mm_netlist.Design.pin_id list list;  (** ordered groups *)
  exc_to : point list option;
  exc_to_edge : edge_sel;
}

val exc :
  ?setup:bool ->
  ?hold:bool ->
  ?from_:point list ->
  ?from_edge:edge_sel ->
  ?through:Mm_netlist.Design.pin_id list list ->
  ?to_:point list ->
  ?to_edge:edge_sel ->
  exc_kind ->
  exc
(** Convenience constructor with unrestricted defaults. *)

type clock_group = {
  grp_kind : Ast.exclusivity;
  grp_name : string option;
  grp_clocks : string list list;
}

type clock_sense = {
  cs_stop : bool;
  cs_clocks : string list option;  (** None = all clocks *)
  cs_pins : Mm_netlist.Design.pin_id list;
}

type env_constraint = {
  envc_kind : Ast.env_kind;
  envc_pin : Mm_netlist.Design.pin_id;
  envc_minmax : Ast.minmax;
  envc_value : float;
}

type disable =
  | Dis_pin of Mm_netlist.Design.pin_id
  | Dis_inst of Mm_netlist.Design.inst_id * string option * string option
      (** instance with optional -from/-to cell pin names *)

type drc_limit = {
  drcl_kind : Ast.drc_kind;
  drcl_pin : Mm_netlist.Design.pin_id;
  drcl_value : float;
}

type t = {
  mode_name : string;
  design : Mm_netlist.Design.t;
  clocks : clock list;  (** in definition order *)
  attrs : (string * clock_attr) list;  (** keyed by clock name *)
  io_delays : io_delay list;
  cases : (Mm_netlist.Design.pin_id * bool) list;
  disables : disable list;
  exceptions : exc list;
  groups : clock_group list;
  senses : clock_sense list;
  envs : env_constraint list;
  drcs : drc_limit list;
}

val empty : Mm_netlist.Design.t -> string -> t

val find_clock : t -> string -> clock option
val attr_of_clock : t -> string -> clock_attr
val clock_names : t -> string list

val clock_key : clock -> string
(** Identity used for duplicate detection when merging: sorted source
    pins + period + waveform + generated info. Two clocks with equal
    keys are "the same clock" (paper 3.1.1). *)

val case_value : t -> Mm_netlist.Design.pin_id -> bool option

val exc_equal : exc -> exc -> bool
val io_delay_equal : io_delay -> io_delay -> bool

val commands_of_exc : Mm_netlist.Design.t -> exc -> Ast.command
(** Serialise a single exception (used when reporting refinement
    fixes). *)

val to_commands : t -> Ast.command list
(** Serialise back to SDC commands (clock definitions first, then
    attributes, environment, case/disable, IO delays, groups, senses,
    exceptions). *)

(** Which record of the mode an emitted command came from. [Sec_exc]
    carries the index into {!t.exceptions} so refinement-added
    exceptions can be attributed positionally. *)
type section =
  | Sec_clock of clock
  | Sec_attr of clock
  | Sec_env of env_constraint
  | Sec_drc of drc_limit
  | Sec_case of Mm_netlist.Design.pin_id * bool
  | Sec_disable of disable
  | Sec_io of io_delay
  | Sec_group of clock_group
  | Sec_sense of clock_sense
  | Sec_exc of int * exc

val to_commands_tagged : t -> (section * Ast.command) list
(** [to_commands] with each command paired with its source record —
    same commands, same order. The provenance layer relies on this
    1:1 correspondence for stable per-constraint ids. *)

val to_sdc : t -> string
(** [Writer.write_commands (to_commands t)] with a mode-name header. *)
