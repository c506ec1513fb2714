(** Crash-safe structured event journal (bounded ring buffer).

    The third leg of the observability layer: {!Obs} records {e how
    long} things took and {!Metrics} records {e how many}, but neither
    answers "what just happened, in order?" when a run dies or is
    inspected mid-flight. The journal is an always-on, process-wide
    ring of structured events — stage starts and finishes, per-mode
    quarantines, clique splits, GC-pressure trips, chaos
    injections — cheap enough to leave enabled in every
    run (one mutex-guarded array write per event; the ring keeps the
    newest 4096 events).

    Event kinds are a stable dotted taxonomy, documented in
    DESIGN.md §15 and checked bidirectionally against a real run by the
    eventlog test suite (the same contract style as the §9 span/metric
    tables):

    - [run.*]        process lifecycle ([run.start], [run.finish],
                     [run.signal])
    - [stage.*]      pipeline stage boundaries ([stage.start],
                     [stage.finish])
    - [merge.*]      merge-flow outcomes ([merge.quarantined],
                     [merge.degraded])
    - [govern.*]     governance actions ([govern.clique_split],
                     [govern.conservative], [govern.pressure])
    - [chaos.*]      fault injection ([chaos.injected])

    The journal is {b read-only with respect to results}: nothing in
    the pipeline ever consults it, so logging an event can never
    perturb merged output. Export is schema-versioned NDJSON
    ({!to_ndjson}), written by [--events FILE] on every exit path
    including signals. *)

type event = {
  ev_seq : int;
      (** process-wide sequence number, 0-based, gap-free across drops:
          the newest event's [ev_seq] is [total () - 1] even after the
          ring has discarded older entries *)
  ev_t_ns : int64;  (** {!Obs.Clock.now_ns} at log time (monotonic) *)
  ev_ts : float;    (** [Unix.gettimeofday] at log time (wall clock) *)
  ev_kind : string; (** stable taxonomy kind, e.g. ["stage.start"] *)
  ev_attrs : (string * string) list;
}

val schema_version : string
(** ["modemerge-events/1"] — carried by the NDJSON header line. *)

val log : ?attrs:(string * string) list -> string -> unit
(** Append one event of the given kind. Never raises, never blocks
    beyond the ring mutex; when the ring is full the oldest event is
    dropped. *)

val recent : unit -> event list
(** The retained events, oldest first (newest last). *)

val total : unit -> int
(** Events logged since process start (or {!reset}), including ones the
    ring has already dropped. *)

val dropped : unit -> int
(** [total () - length (recent ())]: events discarded by the cap. *)

val reset : unit -> unit
(** Drop every event and zero the sequence counter (tests). *)

val to_ndjson : unit -> string
(** Schema-versioned NDJSON export: a header line
    [{"schema":"modemerge-events/1","total":n,"dropped":d}] followed by
    one JSON object per retained event (oldest first) with fields
    [seq], [ts], [t_ns], [kind] and [attrs]. This is the format
    written by [--events FILE] and dumped on crash/signal. *)
