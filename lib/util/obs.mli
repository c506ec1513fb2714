(** Run telemetry: spans, counter samples and the event journal, and
    their exporters.

    One store under one mutex holds the three time-stamped records of a
    run; the {!Metrics} registry holds the numbers. A {e span} is one
    timed region of the pipeline — an SDC parse, a preliminary merge, a
    tag propagation — with a name, an optional set of key/value
    attributes, and a start/duration pair read from the process
    monotonic clock. Spans nest: the span opened by {!with_span} while
    another is live on the same domain becomes its child, so a run
    records a forest mirroring the call structure of the merge flow.

    Span recording is {b off by default} and costs one atomic load per
    {!with_span} when disabled — instrumentation can therefore live
    permanently in hot paths. When enabled (CLI [--trace]/[--profile],
    the bench harness, tests) completed spans accumulate in memory
    until {!reset}.

    Span names are a stable taxonomy, like {!Diag} codes and
    {!Metrics} names (see DESIGN.md "Observability"):

    - [merge.flow] > [merge.mergeability] | [merge.load] | [merge.group]
      > [merge.prelim] | [merge.refine] | [merge.equiv]
    - [compare.pass1] / [compare.pass2] / [compare.pass3]
    - [sdc.parse] / [sdc.resolve]
    - [sta.analyze] > [sta.propagate] | [sta.check]

    On top of spans the module records two resource axes (resource
    telemetry, DESIGN.md §13): per-span {b GC deltas}
    (allocation words, collection counts — opt-in via
    {!set_gc_enabled} because [Gc.quick_stat] allocates) and
    time-stamped {b counter samples} ({!sample} — pool occupancy,
    queue depth, heap watermark) exported as Perfetto counter tracks.

    The {b event journal} ({!event}) is an always-on ring of the
    newest 4096 structured events (DESIGN.md §15).

    Exporters, all rendered through {!Json}: a human-readable profile
    tree ({!profile_tree}), Chrome [trace_event] JSON
    ({!trace_event_json}, loadable in [chrome://tracing] or
    {{:https://ui.perfetto.dev} Perfetto}), a flat metrics JSON
    ({!metrics_json}) combining the {!Metrics} registry with per-span
    duration aggregates — the format committed as [BENCH_<run>.json] —
    and the journal's NDJSON ({!events_ndjson}). *)

(** The monotonic clock behind every span — also the timer the pipeline
    uses for its reported runtimes ([Merge_flow.result.runtime_s],
    [Sta.report.rep_runtime]), so profile and report never disagree
    about what the wall clock did. *)
module Clock : sig
  val now_ns : unit -> int64
  (** Monotonic nanoseconds from an arbitrary origin ([CLOCK_MONOTONIC];
      never jumps on NTP adjustment, unlike [Unix.gettimeofday]). *)

  val elapsed_s : int64 -> float
  (** [elapsed_s t0] is seconds from [t0] (a {!now_ns} reading) to now. *)

  val ns_to_s : int64 -> float
end

val set_enabled : bool -> unit

val set_gc_enabled : bool -> unit
(** Enable per-span GC deltas ([sp_gc]) and [gc.heap_words] counter
    samples at span close. Only meaningful together with
    {!set_enabled}; off by default because [Gc.quick_stat] allocates a
    record per call (two per span). *)

type gc_delta = {
  gd_minor_words : float;      (** words allocated in the minor heap *)
  gd_major_words : float;      (** words allocated in the major heap *)
  gd_promoted_words : float;
  gd_minor_collections : int;
  gd_major_collections : int;
  gd_top_heap_words : int;     (** heap watermark {e at span close} (absolute) *)
}
(** GC activity between a span's open and close, from two
    [Gc.quick_stat] readings on the span's own domain. *)

type span = {
  sp_id : int;          (** unique per process, in start order per domain *)
  sp_parent : int;      (** [sp_id] of the enclosing span, or -1 *)
  sp_depth : int;       (** 0 for roots *)
  sp_tid : int;         (** domain id, for multi-domain traces *)
  sp_name : string;
  sp_attrs : (string * string) list;
  sp_start_ns : int64;  (** {!Clock.now_ns} at open *)
  sp_dur_ns : int64;
  sp_gc : gc_delta option;  (** present iff GC telemetry was enabled *)
}

val with_span :
  ?attrs:(string * string) list ->
  ?result_attrs:('a -> (string * string) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] runs [f] inside a span. The span is recorded
    even when [f] raises. [result_attrs] adds attributes read off
    [f]'s result, after [attrs] (none when [f] raises). When recording
    is disabled this is just [f ()]. *)

(** {2 Cross-domain span context}

    Span nesting is tracked per domain, so a span recorded on a worker
    domain would normally root its own tree there — and the time it
    covers would {e not} be subtracted from the dispatching span's self
    time. A [context] captured on the dispatching domain and installed
    around the task body ({!Pool} does this for every task) re-parents
    worker spans under the caller's open span, keeping [self_s] honest
    for [merge.flow]/[merge.mergeability] under [--jobs > 1]. Note that
    children executing concurrently may overlap, so a parent's summed
    child time can exceed its wall time; self time clamps at 0. The
    owning domain of every span remains visible as [sp_tid] (the [tid]
    field of the trace_event export). *)

type context
(** The innermost open span frame of the capturing domain (or nothing,
    when no span is open / recording is disabled). *)

val capture : unit -> context
(** Snapshot the current domain's open-span position. *)

val with_context : context -> (unit -> 'a) -> 'a
(** [with_context ctx f] runs [f] with the captured frame installed as
    the current span parent on {e this} domain, restoring the previous
    stack afterwards. With an empty context this is just [f ()]. *)

val timed : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a * float
(** Like {!with_span} but additionally returns the elapsed seconds —
    measured whether or not recording is enabled. This is how pipeline
    stages derive their reported runtimes from the span machinery
    instead of keeping separate hand-rolled timers. *)

val spans : unit -> span list
(** Completed spans in start order. Parents precede their children. *)

val reset : unit -> unit
(** Drop recorded spans, counter samples and journal events, and zero
    the journal's sequence counter (leaves the enabled flags and
    {!Metrics} alone). *)

(** {2 Event journal}

    Always on, whatever {!set_enabled} says: one lock and one array
    write per event, and the ring keeps the newest 4096 events, so even
    a misplaced per-element {!event} cannot grow the process. Nothing
    in the pipeline reads the journal back to decide anything, so
    logging an event never perturbs merged output.

    Event kinds ([run.*], [stage.*], [merge.*], [govern.*],
    [chaos.*]) are a stable dotted taxonomy, documented in DESIGN.md
    §15 and checked both ways against a real run by the eventlog test
    suite. *)

type event = {
  ev_seq : int;
      (** 0-based sequence number, gap-free across drops: the newest
          event's [ev_seq] is [events_total () - 1] even after the ring
          has discarded older entries *)
  ev_t_ns : int64;  (** {!Clock.now_ns} at log time (monotonic) *)
  ev_ts : float;    (** [Unix.gettimeofday] at log time (wall clock) *)
  ev_kind : string; (** stable taxonomy kind, e.g. ["stage.start"] *)
  ev_attrs : (string * string) list;
}

val schema_version : string
(** ["modemerge-events/1"] — carried by the NDJSON header line. *)

val event : ?attrs:(string * string) list -> string -> unit
(** Append one event of the given kind. Never raises; when the ring is
    full the oldest event is dropped. *)

val events : unit -> event list
(** The retained events, oldest first. *)

val events_total : unit -> int
(** Events logged since process start (or {!reset}), including ones the
    ring has already dropped. *)

val events_dropped : unit -> int
(** Events the ring has discarded: [events_total ()] minus the retained
    count. *)

(** {2 Counter samples}

    Time-stamped [(name, value)] points on the same monotonic clock as
    spans — a cheap series sampler for values that only make sense
    against time (pool worker occupancy, queue depth, heap size).
    Rendered as Perfetto counter tracks by {!trace_event_json}. *)

val sample : string -> float -> unit
(** Record one counter sample. No-op when recording is disabled, like
    {!with_span}. *)

val samples : unit -> (string * int64 * float) list
(** Recorded counter samples in time order: [(name, t_ns, value)]. *)

(** {2 GC totals}

    Process-lifetime GC counters under stable [gc.*] names — the
    whole-run view the per-span deltas decompose. Always available
    (one [Gc.quick_stat] per call); under [--jobs > 1] allocation
    words are attributed to the calling domain, so totals are a
    driver-domain approximation, stable run-over-run. *)

val gc_totals : unit -> (string * float) list
(** [gc.minor_words], [gc.promoted_words], [gc.major_words],
    [gc.minor_collections], [gc.major_collections], [gc.heap_words],
    [gc.top_heap_words]. *)

val record_gc_metrics : unit -> unit
(** Publish {!gc_totals} as {!Metrics} gauges under the same names.
    Pipeline drivers ([Merge_flow.drive], [Sta.analyze]) call this at
    stage end so every metrics export carries the GC section. *)

(** {2 Exporters} *)

val profile_tree : ?gc:bool -> unit -> string
(** Human-readable call tree: per node (one line per distinct span
    path) the call count, total and self wall time, children indented
    under parents and ordered by first occurrence. With [~gc:true]
    (the [--profile-gc] view) three more columns per node: allocated
    words in millions (minor + major, summed over the node's spans)
    and minor/major collection counts — zeros unless the run had
    {!set_gc_enabled}. *)

val trace_event_json : unit -> string
(** Chrome [trace_event] format: [{"traceEvents":[...]}] with one
    complete ("ph":"X") event per span, microsecond timestamps rebased
    to the earliest event. The stream opens with metadata ("ph":"M")
    events — [process_name] and one [thread_name] per domain id — so
    Perfetto labels each lane "domain N (driver/pool worker)" instead
    of a bare tid, and ends with one counter ("ph":"C") event per
    {!sample} recorded. Open in [chrome://tracing] or Perfetto. *)

val span_summaries : unit -> (string * int * float * float) list
(** Per-span-name aggregates merged across paths, sorted by name:
    [(name, calls, total_s, self_s)]. The flat view behind
    {!metrics_json}. *)

val metrics_items_json : Metrics.item list -> string
(** Registry items as one flat object keyed by metric name: counters
    as integers, gauges as numbers, histograms as
    [{"count":n,"sum":s,"min":a,"max":b,"mean":m,"p50":…,"p90":…,"p99":…}]
    where the percentiles are nearest-rank values over the retained
    reservoir — exact below {!Metrics.max_samples} observations, an
    estimate above it. *)

val metrics_json : unit -> string
(** Flat machine-readable snapshot:
    [{"metrics":{...},"spans":{name:{"calls":n,"total_s":t,"self_s":s}}}]
    — the whole {!Metrics} registry ({!metrics_items_json}) plus
    per-span-name duration aggregates. *)

val events_ndjson : unit -> string
(** Schema-versioned NDJSON export of the journal: a header line
    [{"schema":"modemerge-events/1","total":n,"dropped":d}] followed by
    one JSON object per retained event (oldest first) with fields
    [seq], [ts], [t_ns], [kind] and [attrs]. This is the format
    written by [--events FILE] on every exit path, signals included. *)
