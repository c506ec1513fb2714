(** Growable arrays used by the netlist and timing-graph builders.

    A thin imperative vector: amortised O(1) [push], O(1) random access.
    Indices handed out by [push] are stable, which is what the netlist
    uses as entity ids. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> int
(** [push v x] appends [x] and returns its index. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val exists : ('a -> bool) -> 'a t -> bool
val find_index : ('a -> bool) -> 'a t -> int option
