(** Wire-load models.

    The paper's STA "delay calculations ... were performed using wire
    load model approach" (section 4). A wire-load model estimates a
    net's parasitic capacitance and resistance from its fanout count;
    the net delay seen by each sink is the Elmore-style lumped product
    of driver resistance and total load plus the wire RC. *)

type t = {
  wlm_name : string;
  cap_per_fanout : float;   (** pF added to the net per sink pin *)
  res_per_fanout : float;   (** kOhm-equivalent, folded into ns/pF *)
  slope : float;            (** extrapolation slope beyond the table *)
  table : (int * float) list;
      (** explicit fanout -> wire cap entries; linear interpolation,
          slope-based extrapolation past the last entry *)
}

val default : t
(** A small-geometry default model. *)

val conservative : t
(** A pessimistic model for the synthetic "large die" workloads. *)

val wire_cap : t -> int -> float
(** [wire_cap t fanout] in pF. *)

val net_delay : t -> fanout:int -> pin_caps:float -> float
(** Estimated net propagation delay in ns given total sink pin
    capacitance [pin_caps]. *)
