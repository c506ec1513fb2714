(** Resource governance: deadlines and memory watermarks.

    The merge pipeline is a long multi-stage computation whose cost
    grows with [#modes x #corners]; at production scale a runaway task
    must not wedge the run. This module is the mechanism half of that
    contract (policy lives in [Mm_core.Merge_flow]):

    - {b Tokens} ({!token}) carry an optional absolute deadline on
      {!Obs.Clock}. A child created with {!sub} folds its parent's
      deadline into its own, so it expires when its own budget or any
      ancestor's does. A token expires only by deadline or by the
      memory watermark.
    - {b Cooperative checkpoints}: compute code calls {!checkpoint} at
      loop boundaries; the ambient token (installed per pool task by
      {!Mm_util.Pool}) is consulted and {!Cancelled} raised when the
      budget is gone. When no token is installed the call is a single
      physical-equality test — checkpoints may live in hot paths.
    - {b Memory watermarks}: an optional process-wide heap limit
      checked from {!check} via [Gc.quick_stat] (no heap walk), so a
      blown watermark surfaces as an orderly {!Cancelled} at the next
      checkpoint instead of an OOM kill.
    - {b Structured outcomes} ({!outcome}): {!run} executes a thunk
      under a token and returns [Done]/[Interrupted]/[Crashed] instead
      of raising, preserving the raw backtrace of crashes so
      diagnostics point at the real failure site.

    Determinism note: governance never perturbs results by itself —
    a token that never expires makes every combinator the identity.
    Only the {e policies} reacting to [Interrupted] outcomes (see the
    Merge_flow degradation ladder) change output, and they do so
    through the same quarantine/degrade values as a crashing task. *)

(** Why a computation was interrupted. *)
type reason =
  | Deadline_exceeded of { scope : string; budget_s : float }
  | Memory_watermark of { used_mb : float; limit_mb : float }

val reason_to_string : reason -> string
(** Human rendering, e.g.
    ["deadline exceeded in merge.cliques (budget 2.5s)"]. *)

val reason_code : reason -> string
(** Stable {!Diag} code: [govern.deadline] or [govern.memory]. *)

exception Cancelled of reason
(** Raised by {!check}/{!checkpoint} when the governing token has
    expired. {!Mm_util.Pool.map_outcome} converts it into
    [Interrupted]; it never escapes a governed pool batch. Outside one,
    a checkpoint under the process-wide memory watermark raises it to
    the caller. *)

type token

val never : token
(** The non-expiring token: no deadline, blind to the memory
    watermark. All governance entry points treat it as "governance
    off". *)

val create : ?deadline_s:float -> ?scope:string -> unit -> token
(** Root token. [deadline_s] is a relative budget from now, measured
    on {!Obs.Clock}; omitted means no deadline, and so does a budget
    whose deadline would lie past the int64 nanosecond range. *)

val sub : ?scope:string -> ?budget_s:float -> token -> token
(** Child token: expires at [min] of the parent's deadline and
    [now + budget_s] (no own deadline when that lies past the int64
    nanosecond range). [sub never] with no budget is [never] itself. *)

val scope : token -> string

val cancelled : token -> reason option
(** Polling check: expired deadline (own or ancestor's), then memory
    watermark. [None] on a live token and always on {!never}. *)

val check : token -> unit
(** @raise Cancelled when {!cancelled} is [Some _]. *)

(** {2 Ambient token}

    The pool installs each task's token in domain-local storage so
    compute code deep in the pipeline (comparison passes, STA
    propagation) can checkpoint without threading a token through
    every signature. *)

val with_current : token -> (unit -> 'a) -> 'a
(** Install [token] as this domain's ambient token for the extent of
    the thunk (restored on raise). *)

val checkpoint : unit -> unit
(** {!check} the ambient token — the cooperative cancellation point.
    Free (one physical-equality test) when no token is installed and
    no memory watermark is set. *)

(** {2 Memory watermark} *)

val set_memory_limit_mb : float option -> unit
(** Process-wide heap watermark in MiB of major+minor heap words
    ([None] disables, the default). Checked by {!check}/{!checkpoint}
    via [Gc.quick_stat]. *)

val memory_pressure : unit -> reason option
(** [Some (Memory_watermark _)] when the live heap exceeds the
    configured watermark. The first trip after a limit is (re)set also
    journals one [govern.pressure] event. *)

(** {2 Structured outcomes} *)

type 'a outcome =
  | Done of 'a
  | Interrupted of reason
      (** the token expired — at entry, or at a checkpoint inside *)
  | Crashed of { exn : exn; backtrace : Printexc.raw_backtrace }
      (** the thunk raised; the backtrace is captured at the raise
          site so a re-raise points at the real failure *)

val run : token -> (unit -> 'a) -> 'a outcome
(** Execute the thunk with [token] installed as the ambient token,
    checking it once on entry. Never raises. *)

val value : 'a outcome -> 'a
(** The value of a [Done] outcome. A [Crashed] one re-raises its
    exception with the original backtrace; an [Interrupted] one raises
    {!Cancelled}. *)

val failure_to_string : 'a outcome -> string
(** What went wrong: the reason of an [Interrupted] outcome, the
    printed exception of a [Crashed] one ([""] for [Done]). *)
