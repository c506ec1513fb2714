(** The compiled timing-graph arena.

    The timing graph is flattened once per design into a CSR
    (compressed-sparse-row) skeleton of int arrays — arc endpoints,
    kinds, unateness, adjacency rows, topological order and levels —
    plus the static half of the delay/load model. A per-mode {e
    overlay} then derives the arc delay arrays from the mode's
    environment constraints without re-walking the netlist. Compiled
    skeletons are cached per design (physical identity), so analysing N
    modes or running N refinement iterations compiles exactly once; the
    cache hit is visible as an [sta.incremental_reuse] span, the miss
    as [sta.compile].

    Adjacency rows preserve the descending-arc-id iteration order of
    the linked adjacency lists this arena replaced: topological
    tie-breaking and path backtracking are order-sensitive, and the
    merge pipeline's outputs must stay byte-identical across the
    representation change. *)

(** {1 Arc code spaces} *)

val kind_comb : int
val kind_net : int
val kind_launch : int

val unate_pos : int
val unate_neg : int
val unate_non : int

(** {1 Start/endpoints} *)

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

val unateness : Mm_netlist.Logic.t -> int -> int
(** Unateness code of a cell function in one input, by exhaustive
    evaluation over its support. *)

val min_derate : float
val default_port_drive : float
val transition_delay_factor : float

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
    arrays to every cached skeleton's live heap. See {!Const_prop}. *)

type skeleton = {
  sk_design : Mm_netlist.Design.t;
  sk_n_pins : int;
  sk_n_arcs : int;
  arc_src : int array;
  arc_dst : int array;
  arc_kind : int array;
  arc_inst : int array;
  arc_unate : int array;
  arc_base : float array;
  arc_scale : float array;
  arc_caps : float array;
  arc_ldm : int array;
  out_row : int array;
  out_adj : int array;
  in_row : int array;
  in_adj : int array;
  topo : int array;
  topo_pos : int array;
  level : int array;
  n_levels : int;
  broken : int list;
  sk_endpoints : endpoint list;
  sk_startpoints : startpoint list;
  ldm_pin : int array;
  ldm_pin_caps : float array;
  ldm_wire_cap : float array;
  ldm_sink_row : int array;
  ldm_sinks : int array;
  ldm_drivers : int array;
  const_base : const_base option Atomic.t;
      (** empty after {!compile}; {!Const_prop} publishes the baseline
          on first use, once per skeleton *)
}

type t = {
  sk : skeleton;
  dmin : float array;  (** per arc, derated min delay *)
  dmax : float array;  (** per arc, max delay *)
  loads : float array;
      (** per pin: capacitive load driven (pF); 0 for non-drivers *)
}

val compile : Mm_netlist.Design.t -> skeleton
(** Compile without consulting the cache (benchmark baseline). *)

val skeleton : Mm_netlist.Design.t -> skeleton * bool
(** Cached compile; the flag is true on a cache hit. *)

val overlay : skeleton -> Mm_sdc.Mode.t -> t
(** Derive the per-mode delay arrays over a compiled skeleton. *)

val build : Mm_netlist.Design.t -> Mm_sdc.Mode.t -> t
(** [skeleton] + [overlay], with the compile/reuse spans. *)
