(** Live progress: the open merge stage plus two done/total trackers
    with ETA.

    Only two kinds of work move while it runs, so there are exactly two
    trackers:

    - {!pool_tasks} — every pool batch adds its task count and each
      settled task ticks once, so progress moves {e during} a batch,
      not only at its boundary;
    - {!sta_pins} — one unit per 4,096-pin block of [Sta.propagate]'s
      topological sweep; each sweep ticks every block it registered
      when it ends, normally or by an exception.

    Both are shared by concurrent producers: [done] reaches [total]
    when the last producer ends. A tick is two atomic operations and
    takes no lock.

    The stage is not tracked here: it is read from the [run.start],
    [stage.start] and [stage.finish] events of the {!Obs} event
    journal.

    Recording is always on and strictly read-only with respect to
    results. Its consumer is the [--progress] stderr bar
    ({!set_render}), which is TTY-aware — a terminal gets an in-place
    [\r]-rewritten bar, a pipe gets an occasional plain line. *)

type tracker

val pool_tasks : tracker
val sta_pins : tracker

val add_total : tracker -> int -> unit
(** Grow the tracker's expected total. Totals accumulate: concurrent
    producers add their shares. *)

val tick : ?by:int -> tracker -> unit
(** Advance the tracker's done count by [by] (default 1). Triggers a
    throttled render when {!set_render} is on. *)

type view = {
  tr_name : string;
  tr_done : int;
  tr_total : int;
  tr_elapsed_s : float;  (** since first activity; 0 before any *)
  tr_eta_s : float option;
      (** remaining-time estimate from the mean rate so far; [None]
          until at least one unit is done or once the total is
          reached *)
}

val view : tracker -> view

val stages : unit -> string option * int
(** The open stage and the finished-stage count of the newest run: the
    stage is the newest [stage.start] after the newest [run.start] with
    no matching [stage.finish]; the count is the [stage.finish] events
    since that [run.start]. *)

val reset : unit -> unit
(** Zero both trackers and forget their activity (tests). *)

(** {2 Stderr rendering} *)

val set_render : bool -> unit
(** Enable the [--progress] stderr bar: the open stage, then every
    tracker with work outstanding. On a TTY it renders in place at most
    every 100 ms; on a non-TTY, as a plain
    [progress: STAGE NAME DONE/TOTAL …] line at most every 2 s (so logs
    stay readable). *)

val render_finish : unit -> unit
(** Terminate the bar line (newline on a TTY) so subsequent output
    starts clean; called from every exit path when rendering was on. *)
