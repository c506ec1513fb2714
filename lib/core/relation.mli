(** Timing relationships (paper section 2).

    A timing relationship describes a bundle of paths by launch clock,
    capture clock, endpoint (and optionally startpoint / through pin),
    and the constraint state of those paths. Comparing the
    relationships produced by two constraint sets — rather than the
    constraint texts — is the paper's central idea.

    Clock names are compared after applying a renaming (individual-mode
    clocks map to merged-mode clocks), which callers supply as part of
    building relation sets. *)

type t = {
  launch : string;
  capture : string;
  data_edge : Mm_sdc.Mode.edge_sel;
      (** polarity of the data transition at the endpoint; [Any_edge]
          unless some exception in scope is rise/fall-restricted *)
  setup_state : Mm_timing.Constraint_state.t;
  hold_state : Mm_timing.Constraint_state.t;
}

val make :
  ?data_edge:Mm_sdc.Mode.edge_sel ->
  launch:string ->
  capture:string ->
  setup:Mm_timing.Constraint_state.t ->
  hold:Mm_timing.Constraint_state.t ->
  unit ->
  t

val compare : t -> t -> int
val equal : t -> t -> bool

val normalize : t list -> t list
(** Sort and dedup. *)

val states_of : t list -> Mm_timing.Constraint_state.t list
(** Distinct setup states, sorted (the "state" column of Tables 1-4). *)

val rename : (string -> string) -> t -> t
(** Apply a clock renaming to both clock fields. *)

val set_to_string : t list -> string
(** e.g. ["FP, V"] — distinct setup states joined, as in the paper's
    tables. *)
