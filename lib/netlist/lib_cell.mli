(** Library cell descriptions.

    A cell has named pins, per-output combinational functions (over pin
    indices), optional sequential behaviour, and a simple linear delay
    model: [delay = intrinsic + drive_res * load_capacitance]. This is
    deliberately close to the subset of Liberty data that wire-load-model
    STA consumes. *)

type direction = Input | Output

type role =
  | Data          (** ordinary data input/output *)
  | Clock_in      (** register clock pin (CP/EN) *)
  | Scan_enable
  | Scan_in
  | Select        (** mux select *)
  | Enable        (** clock-gate enable *)
  | Async_reset

type pin = {
  pin_name : string;
  dir : direction;
  role : role;
  cap : float;  (** input capacitance in pF; 0. for outputs *)
}

type edge = Rising | Falling

type seq_info = {
  clock_pin : int;        (** pin index of CP/EN *)
  clock_edge : edge;
  data_pins : int list;   (** pins checked against the clock (D, SI, SE) *)
  q_pins : int list;      (** launched outputs *)
  setup : float;
  hold : float;
  clk_to_q : float;
  is_latch : bool;        (** level-sensitive; timed as edge-triggered at
                              the closing edge (documented simplification) *)
}

type t = {
  cell_name : string;
  pins : pin array;
  functions : (int * Logic.t) list;
      (** output pin index -> function; [Logic.Var i] refers to pin
          index [i] of this cell *)
  seq : seq_info option;
  intrinsic : float;   (** base propagation delay, ns *)
  drive_res : float;   (** output resistance, ns/pF *)
}

val make :
  ?functions:(int * Logic.t) list ->
  ?seq:seq_info ->
  ?intrinsic:float ->
  ?drive_res:float ->
  string ->
  pin list ->
  t

val pin_index : t -> string -> int
(** Index of the pin named [s]. @raise Not_found when absent. *)

val function_of_output : t -> int -> Logic.t option
val is_sequential : t -> bool
val is_combinational : t -> bool

val comb_arcs : t -> (int * int) list
(** All (input pin index, output pin index) pairs where the output's
    function depends on the input. For sequential cells this is empty
    except for clock-gating-style cells whose outputs are combinational. *)
