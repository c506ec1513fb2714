(** Process-wide metrics registry.

    Named counters, gauges and histograms accumulated by the pipeline
    stages — the numeric half of the observability layer. {!Obs} holds
    the spans, counter samples and event journal, and renders this
    registry into its metrics export ({!Obs.metrics_json}). The registry
    is global and thread-safe (one mutex, coarse-grained: every
    operation is O(1) and instrumentation sites record per-stage or
    per-task values — never per-element in hot inner loops — so
    contention is negligible; histogram memory is bounded by
    {!max_samples} regardless).

    Metric names are stable dotted identifiers and, like {!Diag} error
    codes, part of the tool's observable interface — scripts and the
    bench trajectory ([BENCH_*.json]) key on them, so renaming one is
    a breaking change. The registered families:

    - [sdc.*]     front-end work (e.g. [sdc.commands_recovered])
    - [prelim.*]  preliminary merging (e.g. [prelim.exceptions_uniquified])
    - [refine.*]  refinement (e.g. [refine.false_paths_added])
    - [compare.*] the 3-pass comparison (e.g. [compare.fixes])
    - [merge.*]   the merge flow (e.g. [merge.cliques],
                  [merge.quarantined], [merge.degraded_cliques])
    - [sta.*]     the STA engine (e.g. [sta.tags_propagated],
                  [sta.endpoints_checked])

    Unlike {!Obs} spans, the registry is always on: recording is a few
    hashtable operations per pipeline stage and costs nothing
    measurable, and robustness counters ([merge.quarantined]) must be
    visible even in runs that never enable tracing. *)

type histogram = {
  h_count : int;   (** number of observations (exact, uncapped) *)
  h_sum : float;   (** exact sum of every observation *)
  h_min : float;
  h_max : float;
  h_samples : float list;
      (** the retained sample reservoir, in unspecified order. Up to
          {!max_samples} observations every sample is retained and the
          exported percentiles are exact; beyond the cap the reservoir
          is a uniform random subset (Algorithm R, deterministic PRNG
          seeded from the metric name) and percentiles become unbiased
          estimates. The cap bounds memory, so even a misplaced
          per-element [observe] in a hot loop cannot grow the registry
          unboundedly. *)
}

val max_samples : int
(** Reservoir capacity per histogram (1024). [h_count]/[h_sum]/
    [h_min]/[h_max] stay exact past the cap; only the percentile
    sample set is capped. *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram

type item = { name : string; value : value }

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to counter [name], creating it at 0. *)

val set : string -> float -> unit
(** Set gauge [name] (last write wins). *)

val observe : string -> float -> unit
(** Record one observation into histogram [name]. *)

val get_counter : string -> int
(** Current counter value; 0 when absent (or not a counter). *)

val get : string -> value option

val snapshot : unit -> item list
(** All metrics, sorted by name. *)

val reset : unit -> unit
(** Drop every metric (tests and fresh bench runs). *)

val counters : unit -> (string * int) list
(** Counters only, sorted by name: the work counts of a run, without
    the gauges and histograms that carry run-local timings. *)

val percentile : histogram -> float -> float
(** [percentile h q] is the nearest-rank [q]-quantile ([q] in [0,1],
    {!Stat.percentile}) of the histogram's retained samples; [0.] for
    an empty histogram. *)
