(** The timing graph, compiled into a flat arena.

    Nodes are design pins; arcs are cell arcs (input to output, derived
    from cell functions), launch arcs (register clock pin to outputs)
    and net arcs (driver to sinks). The graph is flattened once per
    design into a CSR (compressed-sparse-row) arena of arrays — arc
    endpoints, kinds, unateness, adjacency rows and topological order —
    plus the static half of the delay/load model. The graph holds no
    delays: it is mode-independent, so every analysis context of a
    design shares one compiled graph. {!delays} derives a mode's arc
    delays and pin loads from its environment constraints without
    re-walking the netlist; only STA calls it. Compiled graphs are
    cached per design (physical identity), so analysing N modes or
    running N refinement iterations compiles exactly once; the compile
    is the [sta.compile] span.

    Adjacency rows preserve the descending-arc-id iteration order of
    the linked adjacency lists this arena replaced: topological
    tie-breaking and path backtracking are order-sensitive, and the
    merge pipeline's outputs must stay byte-identical across the
    representation change.

    Arcs are addressed by dense ids; hot paths use the scalar accessors
    and the [iter_*] loops, which allocate nothing. *)

(** {1 Arcs and start/endpoints} *)

type arc_kind = Comb | Net | Launch

(** Transition-sense of an arc: a [Positive] arc propagates a rising
    input as a rising output, [Negative] inverts, [Non_unate] can do
    either (XOR, mux data-vs-select, register launch). Drives the
    rise/fall dimension of exception matching. *)
type unate = Positive | Negative | Non_unate

type endpoint =
  | Ep_reg of {
      ep_data : Mm_netlist.Design.pin_id;
      ep_clock : Mm_netlist.Design.pin_id;
      ep_inst : Mm_netlist.Design.inst_id;
      ep_setup : float;
      ep_hold : float;
      ep_edge : Mm_netlist.Lib_cell.edge;
    }
  | Ep_port of { ep_pin : Mm_netlist.Design.pin_id }

type startpoint =
  | Sp_reg of {
      sp_clock : Mm_netlist.Design.pin_id;
      sp_inst : Mm_netlist.Design.inst_id;
      sp_outputs : Mm_netlist.Design.pin_id list;
      sp_clk_to_q : float;
      sp_edge : Mm_netlist.Lib_cell.edge;
    }
  | Sp_port of { sp_pin : Mm_netlist.Design.pin_id }

(** {1 The arena} *)

type const_base = {
  cb_constants : (int * Mm_netlist.Logic.tri) array;
      (** the pins that are not X, ascending *)
  cb_disabled : int array;  (** the arcs that are not enabled, ascending *)
}
(** The design's all-X constant-propagation baseline: pin values and
    arc enablement with no case analysis and no disables (tie cells
    only), kept as its exceptions to all-X and all-enabled — a few
    entries, where full arrays would add two per-pin and per-arc
    arrays to every cached graph's live heap. See {!Const_prop}. *)

(** The compiled graph of one design: structure and the static delay
    model, nothing per mode. *)
type t = {
  sk_design : Mm_netlist.Design.t;
  sk_n_pins : int;
  sk_n_arcs : int;
  arc_src : int array;
  arc_dst : int array;
  arc_kind : arc_kind array;
  arc_inst : int array;  (** owning instance for Comb/Launch; -1 for Net *)
  arc_unate : unate array;
  arc_base : float array;
  arc_scale : float array;
  arc_caps : float array;
  arc_ldm : int array;
  out_row : int array;
  out_adj : int array;
  in_row : int array;
  in_adj : int array;
  topo : int array;  (** pins in topological order *)
  topo_pos : int array;  (** inverse permutation of [topo] *)
  broken : int list;  (** arcs dropped to break combinational loops *)
  sk_endpoints : endpoint list;
  sk_startpoints : startpoint list;
  clock_pins : Bytes.t;  (** ['\001'] at each register clock pin *)
  ldm_pin : int array;
  ldm_pin_caps : float array;
  ldm_wire_cap : float array;
  ldm_sink_row : int array;
  ldm_sinks : int array;
  ldm_drivers : int array;
  const_base : const_base option Atomic.t;
      (** empty after {!compile}; {!Const_prop} publishes the baseline
          on first use, once per graph *)
}

val compile : Mm_netlist.Design.t -> t
(** Compile without consulting the cache (benchmark baseline). *)

val skeleton : Mm_netlist.Design.t -> t
(** The design's compiled graph, from the cache; a miss compiles under
    the [sta.compile] span and the cache's lock, so a design is compiled
    once however many domains ask for it at once. Loops (if any) are broken at an arbitrary
    arc, recorded in [broken]. *)

(** {1 Delays} *)

type delays = {
  dmin : float array;  (** per arc, derated min delay *)
  dmax : float array;  (** per arc, max delay *)
  loads : float array;
      (** per pin: capacitive load driven (pF); 0 for non-drivers.
          Includes set_load and the wire-load estimate — the quantity
          checked against set_max_capacitance. *)
}

val delays : t -> Mm_sdc.Mode.t -> delays
(** The mode's arc delays and pin loads: the graph's static delay model
    plus the mode's set_load, set_drive and set_input_transition. *)

(** {1 Accessors (hot paths)} *)

val n_pins : t -> int
val n_arcs : t -> int

val arc_src : t -> int -> Mm_netlist.Design.pin_id
val arc_dst : t -> int -> Mm_netlist.Design.pin_id
val arc_kind : t -> int -> arc_kind
val arc_inst : t -> int -> int
val arc_unate : t -> int -> unate

val iter_out : t -> Mm_netlist.Design.pin_id -> (int -> unit) -> unit
(** Arc ids leaving the pin, in the arena's row order (descending id —
    the iteration order downstream tie-breaks rely on). *)

val iter_in : t -> Mm_netlist.Design.pin_id -> (int -> unit) -> unit

val fold_in : t -> Mm_netlist.Design.pin_id -> 'a -> ('a -> int -> 'a) -> 'a

val find_map_in :
  t -> Mm_netlist.Design.pin_id -> (int -> 'a option) -> 'a option
(** First [Some] over the incoming arc ids, in row order. *)

val endpoint_pin : endpoint -> Mm_netlist.Design.pin_id
val startpoint_pin : startpoint -> Mm_netlist.Design.pin_id
(** Canonical node of the point: data pin for register endpoints,
    clock pin for register startpoints, the port pin otherwise. *)

val endpoint_pins : t -> Mm_netlist.Design.pin_id list
