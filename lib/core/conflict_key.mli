(** Per-mode conflict keys: the mergeability conflicts of paper 3.1.2,
    3.1.6 and 3.1.10, read off each mode's own constraints.

    A key indexes one mode's clock attributes by {!Mm_sdc.Mode.clock_key},
    its drive/load values by [(kind, pin, minmax)], and its exceptions
    as canonical keys in which every clock the mode defines is replaced
    by its clock key — so "does the other mode have this exception" is
    a hash lookup instead of a rename-and-compare scan.

    {!conflicts} is the one definition of the conflict rules: the
    mergeability sweep calls it on two keys to reject a pair without a
    mock merge, and {!Prelim.merge} takes its [conflicts] from it.
    Modes merged together must have distinct names (as in
    {!Mm_timing.Ctx_cache}). *)

type t

val of_mode : Mm_sdc.Mode.t -> t
val mode : t -> Mm_sdc.Mode.t

type exc_key
(** An exception with its clocks replaced by their clock keys. Two
    exceptions of two merged modes are {!Mm_sdc.Mode.exc_equal} once
    renamed into the merged mode iff their keys are equal and carry no
    NaN delay. *)

type env_key = Mm_sdc.Ast.env_kind * Mm_netlist.Design.pin_id * Mm_sdc.Ast.minmax

(** {2 The keys of the modes being merged} *)

type merge
type member

val merge : t list -> merge
(** The keys of the modes to merge, in merge order, with the merged
    clocks named. *)

val members : merge -> member list
val member_mode : member -> Mm_sdc.Mode.t

val member_clocks : member -> (string * Mm_sdc.Mode.clock) list
(** The mode's clocks with their clock keys, in definition order. *)

val member_excs : member -> (Mm_sdc.Mode.exc * exc_key) list
(** The mode's exceptions with their keys, in definition order. *)

val merged_clocks : merge -> (string * Mm_sdc.Mode.clock) list
(** Paper 3.1.1: one merged clock per distinct clock key, in order of
    first appearance, named after its first clock with a [_1], [_2],
    ... suffix when the name is taken. *)

val merged_name : merge -> string -> string
(** The merged name of a clock key of the merge. *)

val attr_contributions : merge -> string -> Mm_sdc.Mode.clock_attr list
(** The attributes of every mode clock with this clock key, in mode
    then definition order. *)

val env_keys : merge -> env_key list
(** Every drive/load key of the merge, sorted. *)

val env_values : member -> env_key -> float list
(** The mode's values for one key, in definition order. *)

val in_all : merge -> exc_key -> bool
(** The exception is in every mode of the merge. *)

val pins_of_points :
  Mm_netlist.Design.t -> Mm_sdc.Mode.point list -> Mm_netlist.Design.pin_id list
(** The pins of exception points: pins as given, a sequential
    instance as its clock pin and outputs; clocks contribute none. *)

val unsafe :
  uniquify:bool ->
  ctx_of:(Mm_sdc.Mode.t -> Mm_timing.Context.t) ->
  merge ->
  member ->
  Mm_sdc.Mode.exc * exc_key ->
  bool
(** Paper 3.1.10: whether restricting this exception of the member to
    its clocks cannot keep it off the paths of some mode that lacks it.
    [ctx_of] is read only when the exception has -from pins and shares
    a restricting clock with such a mode. *)

type reason
(** One conflict, formatted only when read ({!reason_text}): deciding a
    pair needs none of the text. *)

val reason_text : reason -> string

val conflicts :
  ?uniquify:bool ->
  tolerance:Mm_util.Toler.t ->
  ctx_of:(Mm_sdc.Mode.t -> Mm_timing.Context.t) ->
  merge ->
  reason list
(** Clock attribute conflicts (merged-clock order, then field order),
    then drive/load conflicts (sorted key order), then one "cannot be
    uniquified" conflict per mode-local non-false-path exception that
    {!unsafe} rejects (mode then definition order). [uniquify]
    defaults to [true]. *)
