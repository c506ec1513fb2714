(** The static timing analyser.

    Tag-based arrival propagation over the timing graph with wire-load
    delays, followed by setup/hold checks at every endpoint. A tag is
    a {!Tag.key} (launch clock, exception-progress state, polarity);
    per node and tag the min/max arrival times are kept. Checks honour exceptions (false
    paths skipped, multicycle cycle adjustment, min/max delay
    overrides), clock-group exclusivity, clock uncertainty and latency
    (ideal or propagated per clock).

    STA is the only reader of delays. An analysis {!Context.t} carries
    none; STA derives the mode's arc delays and pin loads
    ({!Tgraph.delays}) and the insertion delays of its propagated
    clocks into a {!view}, once per analysed mode. The insertion delays
    sit in a {!Tag.Store}, keyed by clock index.

    Absolute accuracy is not the goal — Table 6 of the paper needs
    relative STA runtime and endpoint worst-slack agreement between
    individual and merged modes, which this engine provides. *)

type endpoint_slack = {
  es_pin : Mm_netlist.Design.pin_id;
  es_setup : float option;  (** worst setup slack over all timed paths *)
  es_hold : float option;
  es_capture_period : float option;
      (** period of the capture clock of the worst setup path — the
          conformity denominator in Table 6 *)
}

type drc_violation = {
  drv_pin : Mm_netlist.Design.pin_id;
  drv_kind : Mm_sdc.Ast.drc_kind;
  drv_limit : float;
  drv_actual : float;
}

type report = {
  rep_mode : string;
  rep_slacks : endpoint_slack list;
  rep_drc : drc_violation list;
      (** max_transition / max_capacitance limits exceeded *)
  rep_n_tags : int;        (** total tag instances propagated *)
  rep_n_checked : int;     (** endpoint/clock pairs checked *)
  rep_runtime : float;     (** seconds *)
}

(** {1 The analysed view} *)

type view
(** A context plus the timing data only STA reads: the mode's arc
    delays and pin loads, and the min/max insertion delay of each
    propagated clock at each pin it reaches. *)

val view : Context.t -> view
(** Derive the delays and clock insertion delays of the context's mode.
    The clock sweep runs only when the mode has a propagated clock. The
    check terms that depend only on a relationship's launch clock,
    capture clock and capture edge (the edge separation, the capture
    clock's uncertainties) are computed here once, not per
    relationship; they do not depend on the corner. *)

val clock_arrival :
  view -> Mm_netlist.Design.pin_id -> int -> (float * float) option
(** Min/max network insertion delay of propagated clock [i] (a
    {!Clock_prop} index) at [pin], when the clock reaches it; [None]
    for ideal clocks. *)

(** {1 Arrival propagation}

    Exposed for differential testing: the production engine keeps its
    tags in a {!Tag.Store}, the reference engine one Hashtbl per pin.
    Both must produce identical tag sets and arrivals, and neither
    carries data tags into a register clock pin ({!Tag.carries}). *)

val propagate :
  ?corner:Corner.t -> ?scratch:Tag.Store.t -> view -> Tag.Store.t * int
(** Seed startpoints and sweep arrivals forward in topological order
    into [scratch], emptied first, or into a fresh store without one;
    also the number of pins swept with tags. *)

type tag_maps = (int, float * float) Hashtbl.t array

val propagate_reference : ?corner:Corner.t -> view -> tag_maps * int
(** The pre-store engine, kept as the differential-testing oracle. *)

val slacks_with :
  ?corner:Corner.t ->
  view ->
  (Mm_netlist.Design.pin_id -> (int -> float -> float -> unit) -> unit) ->
  endpoint_slack list
(** Run the endpoint checks over an arbitrary tag provider — lets tests
    compare slacks computed from {!propagate} and
    {!propagate_reference} storage. The checks are one routine, over
    {!Context.fold_relationships}: the worst slacks of {!analyze} and
    the paths of {!worst_paths} both read it. *)

(** {1 Full analysis} *)

val analyze :
  ?ctx:Context.t ->
  ?corner:Corner.t ->
  ?scratch:Tag.Store.t ->
  Mm_netlist.Design.t ->
  Mm_sdc.Mode.t ->
  report
(** Run a full analysis; [ctx] can be supplied to reuse a prepared
    context (e.g. from a {!Ctx_cache}), [corner] applies PVT derating
    (default {!Corner.typical}), and the arrivals go into [scratch]
    (see {!propagate}). The view is derived inside the analysis and
    dropped with it. *)

val analyze_view : ?corner:Corner.t -> ?scratch:Tag.Store.t -> view -> report
(** {!analyze} over a prepared view: the report of its context's mode.
    Analysing one view at several corners derives its delays once. *)

val analyze_many :
  ?corner:Corner.t ->
  ?pool:Mm_util.Pool.t ->
  Mm_netlist.Design.t ->
  Mm_sdc.Mode.t list ->
  report list
(** One {!analyze} per mode, reports in input order. Runs the modes as
    independent pool tasks when [pool] is given — each task builds its
    own context, view and tag store, so the reports (and the [sta.*]
    counters) are identical with and without a pool. Without a pool
    the modes propagate in turn into one store. *)

val analyze_scenarios :
  Mm_netlist.Design.t ->
  modes:Mm_sdc.Mode.t list ->
  corners:Corner.t list ->
  (string * string * report) list
(** One STA per (mode, corner) scenario — the paper's
    [#modes x #corners] product, one {!view} per mode reused across its
    corners, every scenario propagating into one tag store. Returns
    (mode, corner, report). *)

val worst_setup_by_endpoint : report -> (Mm_netlist.Design.pin_id * float) list
(** Endpoints that have a setup check, with their worst slack. *)

(** {1 Path reporting} *)

type path_step = {
  st_pin : Mm_netlist.Design.pin_id;
  st_incr : float;     (** delay added by the arc into this pin *)
  st_arrival : float;  (** cumulative arrival *)
}

type path = {
  pth_endpoint : Mm_netlist.Design.pin_id;
  pth_launch_clock : string;
  pth_capture_clock : string;
  pth_arrival : float;
  pth_required : float;
  pth_slack : float;
  pth_steps : path_step list;  (** startpoint first *)
}

val worst_paths :
  ?ctx:Context.t ->
  ?corner:Corner.t ->
  ?n:int ->
  Mm_netlist.Design.t ->
  Mm_sdc.Mode.t ->
  path list
(** The [n] (default 3) worst setup paths, each traced arc by arc from
    its startpoint (report_timing style). *)

val path_to_string : Mm_netlist.Design.t -> path -> string
(** Multi-line rendering of one path in the familiar STA report form. *)

val merge_worst : report list -> (Mm_netlist.Design.pin_id, float * float) Hashtbl.t
(** Per endpoint, worst (most negative) setup slack across reports and
    the capture period of that worst path — the per-endpoint view used
    for multi-mode sign-off and QoR conformity. *)

val conformity :
  individual:report list -> merged:report list -> tolerance_frac:float -> float
(** Percentage of endpoints whose merged-mode worst slack deviates from
    the individual-mode worst slack by at most [tolerance_frac] of the
    capture clock period (Table 6's "Conformity" column, with 0.01). *)
