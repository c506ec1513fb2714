(** PVT corners.

    The paper's motivation is the scenario explosion
    [#modes x #corners]; mode merging attacks the first factor and is
    corner-independent. A corner scales the delay model (process /
    voltage / temperature derating) and tightens checks; running STA
    over [modes x corners] with merged modes multiplies the paper's
    runtime saving by the corner count unchanged. *)

type t = {
  corner_name : string;
  derate_max : float;   (** multiplier on max-path (late) delays *)
  derate_min : float;   (** multiplier on min-path (early) delays *)
  extra_setup : float;  (** additive setup margin, ns *)
  extra_hold : float;   (** additive hold margin, ns *)
}

val typical : t
(** Unit derates, no extra margin. *)

val slow : t
(** Worst-case (setup-critical): late delays inflated. *)

val fast : t
(** Best-case (hold-critical): early delays deflated. *)

val standard_set : t list
(** [typical; slow; fast]. *)
