(** Fixed domain pool with deterministic, input-order result folding.

    The merge pipeline is organised as lists of {e pure tasks} — each
    task returns an outcome value instead of mutating shared state —
    and this pool executes a task list on [jobs] domains while keeping
    the {e results} in input order. Running with [jobs = N] therefore
    produces byte-identical output to [jobs = 1]; only wall-clock time
    changes.

    Semantics:

    - {!map} preserves input order regardless of the execution
      interleaving.
    - A raising task does not abort its siblings; once the whole batch
      has finished, the exception of the {e lowest-index} failing task
      is re-raised (with its backtrace) — the same exception a
      sequential left-to-right run would have surfaced first.
    - Every pool size runs a batch through the same claim loop, in
      which the calling domain takes part; at [jobs = 1] no domain is
      spawned and the caller claims every task itself.
    - Every batch feeds the pool telemetry ({!Metrics}): the
      [pool.tasks_executed] and [pool.batches] counters, the
      [pool.task_s] per-task wall-time histogram, the
      [pool.queue_depth] histogram (unclaimed tasks at each claim),
      and the [pool.occupancy] histogram (per batch, summed task time
      over wall time × workers — 1.0 is a perfectly packed batch).
      When {!Obs} tracing is on, the pool additionally
      samples [pool.active_workers] and [pool.queue_depth] as
      time-stamped counter tracks ({!Obs.sample}) for the Perfetto
      timeline.
    - The {!Obs} span context open at the {!map} call is re-installed
      around every task body, so spans recorded inside tasks — even on
      worker domains — attach to the dispatching span rather than
      rooting per-domain trees (each span still carries its own domain
      id in [sp_tid]).

    The pool is {e not} reentrant: a task must not call {!map} on the
    pool executing it (the pipeline only dispatches from the driver
    domain, never from inside a task). *)

type t

val clamp_jobs : int -> int
(** [min n (Domain.recommended_domain_count ())]: workers beyond the
    hardware threads make merging slower, not faster. *)

val default_jobs : unit -> int
(** Worker count used when the caller does not pin one: the [MM_JOBS]
    environment variable when set to a positive integer (clamped by
    {!clamp_jobs}), otherwise [Domain.recommended_domain_count ()]. *)

val jobs : t -> int
(** The (clamped) concurrency of the pool. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool executing up to [jobs]
    tasks concurrently ([jobs - 1] spawned domains plus the calling
    domain, which takes part in every batch), and joins the worker
    domains afterwards, even on raise. [jobs] defaults to
    {!default_jobs} and is clamped to at least 1, not to the hardware
    (an oversubscribed pool is a stress-test configuration). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element, in parallel across the
    pool's domains, returning results in the order of [xs]. A raising
    task's exception is re-raised with the backtrace captured at its
    raise site on the worker domain, so diagnostics point at the real
    failure rather than the dispatch site. *)

val map_outcome :
  t ->
  ?govern:Govern.token ->
  ?task_budget_s:float ->
  ('a -> 'b) ->
  'a list ->
  'b Govern.outcome list
(** Governed batch: like {!map} but never raises — every task yields a
    {!Govern.outcome} in input order.

    - Each task runs under a token derived from [govern] (plus
      [task_budget_s] when given, yielding a per-task deadline),
      installed as the ambient token ({!Govern.with_current}) so
      checkpoints inside the task body observe it.
    - Workers re-check [govern] before claiming each task: once the
      batch token expires, remaining tasks drain as [Interrupted]
      without running — an exhausted budget empties the pool instead
      of wedging it.
    - A task raising {!Govern.Cancelled} (from a cooperative
      checkpoint) becomes [Interrupted]; any other exception becomes
      [Crashed] with its raise-site backtrace. Task bodies therefore
      catch nothing: the caller settles every outcome.
    - The chaos site [pool.task] fires at each task entry, before the
      entry cancellation check ({!Mm_util.Chaos}). In a parallel batch
      the task that draws a given occurrence varies with scheduling. *)

val utilization_report : unit -> string
(** Human-readable summary of the [pool.*] slice of the {!Metrics}
    registry — batch/task counts, task-time and queue-depth
    percentiles, per-batch occupancy. Covers every pool the run
    created (the registry is global); printed by [--profile] runs
    after the span tree. *)
