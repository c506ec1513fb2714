(** Domain-safe analysis-context cache.

    Building a {!Context.t} (graph + constant/clock propagation +
    exception matcher) is the expensive part of every merge-pipeline
    stage, and the same individual mode is needed by many stages — the
    singleton probe, every pairwise mergeability check it appears in,
    and its clique's merge. Historically the stages shared one raw
    [(string, Context.t) Hashtbl.t]; that is not safe once stages run
    on a domain pool.

    A {!t} is a {e per-task handle}: a private, lock-free read-through
    table in front of a mutex-guarded shared store. Lookups hit the
    private table first; misses consult the store under its lock;
    store misses build the context {e outside} the lock (two domains
    may race to build the same context — the first one stored wins and
    the duplicate is dropped, which is harmless because contexts for
    the same mode are interchangeable). {!fork} makes a new handle
    over the same store, which is how the pipeline hands one logical
    cache to a batch of pool tasks.

    Contexts are cached by mode name, so all modes entering one cache
    must have distinct names and belong to the same design — true by
    construction in the merge flow, which derives mode names from
    distinct source files.

    The store also holds a {e layer store}: every constant layer
    ({!Const_prop.t}) and clock layer ({!Clock_prop.t}) built through
    the cache, so a layer is built once per cache however many
    contexts — individual, mock-merged, merged — rest on it. A
    constant layer is keyed by exactly what {!Const_prop.run} reads:
    the final case value per pin and the set of disables. A clock
    layer is keyed by its constant layer's key, the clock names and
    sources in definition order, and the stop senses. Missing layers
    are built outside the lock like contexts, and the first one
    published wins; a layer is a pure function of its key, so what a
    run computes does not depend on which domain built it. The layers
    live as long as the store; the merge flow makes one per
    run. *)

type t

val create : unit -> t
(** A fresh cache (new shared store, new private table). *)

val fork : t -> t
(** A new handle over the same shared store, with an empty private
    table. Hand one fork to each parallel task. *)

val find : t -> Mm_sdc.Mode.t -> Context.t
(** The cached context for [mode] (keyed by [mode_name]), building and
    publishing it on miss, on layers from the store. *)

val build : t -> Mm_sdc.Mode.t -> Context.t
(** A new context for [mode], not cached by name — for merged modes,
    whose names repeat across mock merges — on constant and clock
    layers from the store (built and published on miss). It equals
    [Context.create mode.design mode] in every pin value, pin activity,
    arc enablement and clock mask. *)

val layers : t -> int * int
(** The constant and clock layers the store holds: the distinct layers
    built through the cache and its forks. *)
