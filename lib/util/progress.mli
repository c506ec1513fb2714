(** Live per-stage progress: done/total counters with ETA.

    Every long-running part of the pipeline reports coarse progress
    into a small set of named {e trackers}:

    - [merge.load] / [merge.mergeability] / [merge.cliques] — the
      merge-flow stages, one unit per source / probed mode / clique,
      advanced by the driver as outcomes fold in;
    - [pool.tasks] — every pool batch adds its task count and each
      task completion ticks once, so progress moves {e during} a batch,
      not only at its boundary;
    - [sta.pins] — a coarse tick from inside [Sta.propagate]'s
      topological sweep (every {!Mm_timing} sweep block), the only
      signal available mid-propagation; each sweep ticks every block
      it registered when it ends, normally or by an exception.

    [pool.tasks] and [sta.pins] are shared by concurrent producers, so
    they are never marked finished: [done] reaches [total] when the
    last producer ends.

    Trackers are process-global and thread-safe; recording is always on
    (a tick is one mutex acquisition) and strictly read-only with
    respect to results. Two consumers: the [GET /progress] endpoint
    ({!to_json}) and the [--progress] stderr bar ({!set_render}),
    which is TTY-aware — a terminal gets an in-place
    [\r]-rewritten bar, a pipe gets an occasional plain line. *)

type tracker = {
  tr_name : string;
  tr_done : int;
  tr_total : int;       (** 0 when the total is not yet known *)
  tr_start_ns : int64;  (** first activity, {!Obs.Clock} *)
  tr_finished : bool;
  tr_elapsed_s : float;
  tr_eta_s : float option;
      (** remaining-time estimate from the mean rate so far; [None]
          until at least one unit is done or when the total is unknown
          or already reached *)
}

val add_total : ?by:int -> string -> unit
(** Grow tracker [name]'s expected total by [by] (default 1), creating
    the tracker on first use. Totals accumulate — concurrent producers
    (e.g. several STA sweeps) simply add their shares. *)

val tick : ?by:int -> string -> unit
(** Advance tracker [name]'s done count by [by] (default 1), creating
    the tracker on first use. Triggers a (throttled) render when
    {!set_render} is on. *)

val finish : string -> unit
(** Mark tracker [name] finished (done snaps to total when a total is
    known). *)

val snapshot : unit -> tracker list
(** All trackers in first-activity order. *)

val to_json : unit -> string
(** The [GET /progress] document:
    [{"trackers":[{"name":…,"done":…,"total":…,"elapsed_s":…,
    "eta_s":…,"finished":…}],"overall":{…}}] where [overall] sums the
    merge-stage trackers. *)

val reset : unit -> unit
(** Drop every tracker (tests; a fresh run). *)

(** {2 Stderr rendering} *)

val set_render : bool -> unit
(** Enable the [--progress] stderr bar. On a TTY the newest active
    tracker renders as an in-place bar at most every 100 ms; on a
    non-TTY, as a plain [progress: name done/total] line at most every
    2 s (so logs stay readable). *)

val render_finish : unit -> unit
(** Terminate the bar line (newline on a TTY) so subsequent output
    starts clean; called from every exit path when rendering was on. *)
