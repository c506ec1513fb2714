(** Flat gate-level design database.

    Entities — ports, instances, nets and pins — are integer-indexed
    for speed; names resolve through hash tables. A pin belongs either
    to a top-level port or to an instance (one pin per library-cell
    pin). Nets connect exactly one driver (an instance output pin or an
    input port) to any number of sinks.

    This is the structural substrate for the timing graph ({!Mm_timing})
    and SDC object queries ({!Mm_sdc}). *)

type t

(** Dense: pins are numbered 0..[n_pins]-1 in creation order with no
    holes, so a [pin_id] indexes plain arrays directly. The compiled
    timing arena ([Mm_timing.Tgraph], DESIGN.md section 14) builds its
    CSR rows, topological order and per-pin tag store on this
    contract — keep it if pin construction ever changes. *)
type pin_id = int
type inst_id = int
type net_id = int
type port_id = int

type port_dir = In | Out
type pin_owner = Port_pin of port_id | Inst_pin of inst_id * int

val create : string -> t
val design_name : t -> string

(** {1 Construction} *)

val add_port : t -> string -> port_dir -> port_id
(** @raise Invalid_argument on duplicate port name. *)

val add_inst : t -> string -> Lib_cell.t -> inst_id
(** @raise Invalid_argument on duplicate instance name. *)

val get_net : t -> string -> net_id
(** Find-or-create the net named [s]. *)

val attach : t -> net_id -> pin_id -> unit
(** Connect [pin] to [net]. Driver/sink is inferred from the pin's
    direction. @raise Invalid_argument if the pin is already connected
    or the net would get a second driver. *)

val wire : t -> string -> string list -> unit
(** [wire t net_name pin_names] creates/fetches the net and attaches
    every named pin ("inst/PIN" or a port name), in any order. *)

(** {1 Lookup} *)

val find_port : t -> string -> port_id option
val find_inst : t -> string -> inst_id option
val find_net : t -> string -> net_id option

val pin_of_name : t -> string -> pin_id option
(** Accepts "inst/PIN" for instance pins and a bare port name for port
    pins. *)

val pin_of_name_exn : t -> string -> pin_id
val pin_name : t -> pin_id -> string

(** {1 Entity accessors} *)

val port_name : t -> port_id -> string
val port_dir : t -> port_id -> port_dir
val port_pin : t -> port_id -> pin_id

val inst_name : t -> inst_id -> string
val inst_cell : t -> inst_id -> Lib_cell.t
val inst_pin : t -> inst_id -> int -> pin_id
(** Pin id of cell-pin index [i] of the instance. *)

val inst_pin_by_name : t -> inst_id -> string -> pin_id
val inst_pins : t -> inst_id -> pin_id array

val net_name : t -> net_id -> string
val net_driver : t -> net_id -> pin_id option
val net_sinks : t -> net_id -> pin_id list
val net_fanout : t -> net_id -> int

val iter_net_sinks : t -> net_id -> (pin_id -> unit) -> unit
(** The net's sinks in {!net_sinks} order, without building the list. *)

val pin_owner : t -> pin_id -> pin_owner
val pin_net : t -> pin_id -> net_id option
val pin_is_driver : t -> pin_id -> bool
(** True for instance output pins and input ports: pins that source a
    net. *)

val pin_cap : t -> pin_id -> float
val pin_role : t -> pin_id -> Lib_cell.role option
(** [None] for port pins. *)

(** {1 Traversal} *)

val n_ports : t -> int
val n_insts : t -> int
val n_nets : t -> int
val n_pins : t -> int

val iter_ports : t -> (port_id -> unit) -> unit
val iter_insts : t -> (inst_id -> unit) -> unit
val iter_nets : t -> (net_id -> unit) -> unit
val iter_pins : t -> (pin_id -> unit) -> unit

val fanout_pins : t -> pin_id -> pin_id list
(** For a driver pin: the sinks of its net (empty when unconnected). *)

val registers : t -> inst_id list
(** All sequential instances, in creation order. *)
