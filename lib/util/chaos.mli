(** Deterministic fault injection for the chaos suite.

    The {!Mm_workload.Fuzz_inputs} harness corrupts {e inputs}; this
    module injects {e execution} faults — task delays and raised
    exceptions — at named sites compiled into the pipeline, so the
    [@chaos] suite can exercise the degradation ladder (clique split,
    quarantine, conservative pair verdict) without races or sleeps in
    test code.

    A fault plan is a comma-separated spec, parsed from the
    [MM_CHAOS] environment variable (the CLI hooks it up) or set
    directly by tests:

    {v SITE@OCC=FAULT[,SITE@OCC=FAULT...] v}

    where [SITE] is a compiled-in site name ([pool.task] or
    [sta.propagate]), [OCC] is a 1-based occurrence
    number or [*] for every occurrence, and [FAULT] is one of

    - [delay:MS] — sleep MS milliseconds at the site (drives the
      deadline/timeout paths);
    - [raise] — raise {!Injected} at the site (drives the crash
      paths: quarantine, degraded clique, conservative pair verdict).

    Occurrences are counted per site under a mutex, so a plan is
    deterministic for a given execution order. Within a parallel pool
    batch the task that draws a given occurrence varies with
    scheduling, so a fault meant to give the same outcome at any
    [jobs] targets a batch of one task (or every occurrence). With no
    plan configured, {!hit} is one atomic load. *)

exception Injected of string
(** Raised by a [raise] fault; the payload is the site name. *)

val configure : string -> (unit, string) result
(** Install a fault plan, replacing any previous one and resetting
    occurrence counters. [Error msg] on a malformed spec (no plan is
    installed). The empty string clears the plan. *)

val configure_env : unit -> unit
(** [configure] from [MM_CHAOS] when set; malformed specs abort with
    an error on stderr (a chaos run with a typo must not silently
    test nothing). *)

val clear : unit -> unit
(** Drop the plan and occurrence counters. *)

val active : unit -> bool

val hit : string -> unit
(** Announce reaching a site: bumps its occurrence counter and fires
    every matching fault. No-op (one atomic load) when no plan is
    installed. *)

val hit_count : string -> int
(** Occurrences of a site so far under the current plan. *)
