(** Machine-readable merge audit report ([--audit out.json]).

    One schema-versioned JSON object per merge run:

    - ["audit_schema_version"] — currently [2] (v2 added the
      ["governance"] section);
    - ["summary"] — mode counts, reduction, clique/quarantine totals;
    - ["mergeability"] — mode names, clique cover, and the pairwise
      verdict matrix in canonical (i, j) index order, each pair with
      its first blocking reason and the full reason list;
    - ["groups"] — per emitted mode: members, equivalence verdict,
      refinement stats, and the full per-constraint lineage table
      ({!Mm_util.Prov.to_json});
    - ["quarantined"] / ["degraded"] — fault-tolerance outcomes;
    - ["governance"] — outcome-affecting resource-governance decisions
      (clique splits, budget quarantines, conservative pair verdicts,
      the chronological event list, whether a deadline was hit); the
      [govern.*] counters live in the metrics export only;
    - ["coverage"] — what this merge added to the stable per-pass
      coverage counters ({!Merge_flow.coverage_counters}), so a second
      merge in the same process reports its own counts. The [compare.*]
      counters count refinement's comparison passes only: each group's
      equivalence verdict is read from refinement's final comparison,
      not from a second one.

    The report contains no timings, gauges or hash-ordered data, so
    its bytes are identical across [--jobs] values (DESIGN.md §11). *)

val mandatory_keys : string list
(** Top-level keys every audit file must carry — what
    [test_provenance]'s [mandatory schema keys] case checks. *)

val to_json : Merge_flow.result -> string

val write : string -> Merge_flow.result -> unit
(** Write {!to_json} (plus trailing newline) to the path. *)
