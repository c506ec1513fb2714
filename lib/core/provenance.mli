(** Provenance derivation: build the {!Mm_util.Prov} lineage store for
    an emitted (merged or singleton) mode.

    The store is derived by walking [Mode.to_commands_tagged] on the
    emitted mode, so entries are 1:1 with the emitted SDC commands and
    ids ([<mode>#c<N>]) depend only on the mode's content — they are
    byte-identical across [--jobs] values and runs. Each constraint is
    classified against the preliminary-merge result (which §3.1 rule
    produced it, which source modes contributed) and the refinement
    lineage (which data-clock cut or comparison-pass mismatch added
    it, with the full {!Compare.evidence}). See DESIGN.md §11. *)

val of_single : Mm_sdc.Mode.t -> Mm_util.Prov.store
(** Provenance for a singleton clique: every constraint is a trivial
    union from the one source mode. *)

val of_group :
  members:Mm_sdc.Mode.t list ->
  prelim:Prelim.t ->
  refine:Refine.t option ->
  mode:Mm_sdc.Mode.t ->
  Mm_util.Prov.store
(** Provenance for a merged clique. [mode] is the emitted mode (the
    refined mode when refinement ran). Contributor lookups iterate
    members and their record lists in input order only, so the
    attribution lists are deterministic. *)

val annotated_sdc : Mm_util.Prov.store -> Mm_sdc.Mode.t -> string
(** The mode's SDC with a ["# prov: ..."] comment line above every
    constraint, e.g. ["# prov: merged_0#c12 union [modeA,modeB]"]. Parses back to the same commands (comments are
    skipped). *)
