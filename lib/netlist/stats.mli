(** Design statistics for reports and benchmark tables. *)

type t = {
  ports : int;
  insts : int;
  nets : int;
  pins : int;
  registers : int;
  combinational : int;
  max_fanout : int;
}

val of_design : Design.t -> t
val to_string : t -> string
