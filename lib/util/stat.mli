(** Numeric helpers for the benchmark harness, reports and metrics
    export.

    Convention: the [float]-returning aggregates ([mean],
    [percentile], [reduction_percent]) return [0.] on empty or
    degenerate input — convenient for report cells, but
    indistinguishable from a true zero. Callers that must tell the two
    apart (e.g. metrics export) use the [_opt] variants.

    NaN/infinity guards: [percentile] drops non-finite samples before
    ranking ({!finite}), so a stray [nan] in a timing list cannot shift
    a quantile. [mean]/[mean_opt] average the raw list. *)

val finite : float list -> float list
(** The finite samples of the list, in order ([nan]/[±inf] dropped). *)

val mean_opt : float list -> float option
(** Arithmetic mean; [None] on the empty list. *)

val mean : float list -> float
(** Arithmetic mean; [0.] on the empty list (see the module convention). *)

val percentile_opt : float -> float list -> float option
(** [percentile_opt q xs] is the nearest-rank [q]-quantile ([q]
    clamped to [0,1]) of the finite samples of [xs]; [None] when none
    are finite. Nearest-rank: the value at 1-based rank
    [ceil (q * n)] of the sorted samples — always an actual sample,
    never an interpolation. *)

val percentile : float -> float list -> float
(** Like {!percentile_opt} with [0.] on empty input. *)

val reduction_percent : float -> float -> float
(** [reduction_percent before after] is the percentage reduction from
    [before] to [after]. Robust for metrics export: [0.] when [before]
    is zero, negative or NaN (no meaningful baseline), and {e negative}
    when [after > before] — a regression is reported as a negative
    reduction, never as nonsense. Always finite for finite input. *)

val fmt_f1 : float -> string
(** Format with one decimal, e.g. ["67.5"]. *)

val fmt_f2 : float -> string
(** Format with two decimals, e.g. ["62.52"]. *)

val fmt_time_s : float -> string
(** Seconds with three decimals, e.g. ["1.204"]. *)
