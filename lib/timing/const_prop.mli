(** Case-analysis constant propagation and arc enablement.

    Constants come from [set_case_analysis], tie cells and anything
    they imply through cell functions (computed in topological order
    with three-valued logic). An arc is enabled when

    - neither endpoint carries a constant,
    - neither endpoint is disabled by [set_disable_timing],
    - for cell arcs, the input can still influence the output under the
      current constants (a mux with its select cased off propagates
      only the selected data input, which is what makes the paper's
      clock-refinement examples work), and
    - the arc is not a loop-breaking casualty.

    Propagation is change-driven. The design's all-X {!baseline} (no
    cases, no disables: tie cells and what they imply) is computed once
    per compiled graph; {!run} expands it and re-evaluates, in
    topological order, only the pins whose inputs changed, then
    re-decides enablement only for arcs a changed or disabled pin can
    affect. The result is the one a single topological sweep from
    all-X gives, including at cycle breaks: there a pin reads the
    later pin's initial value — its case value, else X.

    A result keeps one byte per pin for its value, one per pin for its
    disable and one per arc for its enablement, read through the
    accessors below: a run can keep every distinct layer it builds
    ({!Ctx_cache}). *)

type t

val run : Tgraph.t -> Mm_sdc.Mode.t -> t
(** A pure function of the graph, the mode's final case value per pin
    (a pin cased twice keeps its last value) and the set of its
    disables: nothing else of the mode is read. *)

val baseline : Tgraph.t -> Tgraph.const_base
(** The all-X baseline of the compiled graph, computed on first use
    and shared by every later call on any domain (it is computed under
    a lock, so racing first calls wait for the one computation).
    Shared: do not mutate. *)

val value : t -> Mm_netlist.Design.pin_id -> Mm_netlist.Logic.tri
val enabled : t -> int -> bool
(** [enabled t arc_index] *)

val disabled : t -> Mm_netlist.Design.pin_id -> bool
(** The pin is disabled by [set_disable_timing]. *)

val pin_active : t -> Mm_netlist.Design.pin_id -> bool
(** Not disabled and not constant: the pin can carry transitions. *)
