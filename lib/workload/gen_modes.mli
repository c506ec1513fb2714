(** Synthetic mode-suite generator.

    Produces N timing modes over a generated design, organised into
    "families". Modes within a family differ only in ways the paper's
    algorithm can reconcile — conflicting case analysis (dropped and
    compensated by refinement), mode-local false paths (dropped or
    uniquified), extra IO delays — so a family forms a clique of the
    mergeability graph. Across families, hard incompatibilities are
    planted (drive/load values and clock attributes beyond tolerance),
    so distinct families cannot merge. The expected merged mode count
    therefore equals the family count, mirroring the individual/merged
    columns of the paper's Table 5. *)

type suite_params = {
  sp_seed : int;
  families : int list;
      (** modes per family; [List.length families] = expected merged
          count; one family may be a scan family (see below) *)
  base_period : float;           (** domain-0 clock period, ns *)
  scan_family : bool;
      (** make the last family scan-shift modes (scan clock + scan
          enable case) when the design has scan *)
}

val generate :
  Mm_netlist.Design.t ->
  Gen_design.info ->
  suite_params ->
  Mm_sdc.Mode.t list
(** Deterministic from [sp_seed]; modes are named
    ["m<family>_<index>"]. Raises [Failure] if the SDC any mode needs
    fails to resolve (generator bug guard). *)

val sdc_of_mode_spec :
  Gen_design.info -> suite_params -> family:int -> index:int -> string
(** The SDC text used for one mode — exposed so tests and the CLI demo
    can show/parse the same constraints. *)
