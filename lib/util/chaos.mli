(** Deterministic fault injection for the chaos suite.

    The PR-1 {!Mm_workload.Fuzz_inputs} harness corrupts {e inputs};
    this module injects {e execution} faults — task delays and raised
    exceptions — at named sites compiled into the pipeline, so the
    [@chaos] matrix can exercise the governance ladder (retry, clique
    split, quarantine) without races or sleeps in test code.

    A fault plan is a comma-separated spec, parsed from the
    [MM_CHAOS] environment variable (the CLI hooks it up) or set
    directly by tests:

    {v SITE@OCC=FAULT[,SITE@OCC=FAULT...] v}

    where [SITE] is a compiled-in site name ([pool.task], [io.read],
    ...), [OCC] is a 1-based occurrence number or [*] for every
    occurrence, and [FAULT] is one of

    - [delay:MS] — sleep MS milliseconds at the site (drives the
      deadline/timeout paths);
    - [raise] — raise {!Injected} at the site (drives retry and
      quarantine paths).

    Occurrences are counted per site under a mutex, so a plan is
    deterministic for a given execution order; sites fired from pool
    workers are deterministic in {e effect} (any governed task hit by
    a fault is retried or degraded identically) even when the hit
    task index varies with scheduling. With no plan configured,
    {!hit} is one atomic load. *)

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
