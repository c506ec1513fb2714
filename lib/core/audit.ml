module Diag = Mm_util.Diag
module Json = Mm_util.Json
module Prov = Mm_util.Prov

let schema_version = 2

let mandatory_keys =
  [
    "audit_schema_version"; "summary"; "mergeability"; "groups"; "coverage";
    "governance";
  ]

let str = Json.str
let int = string_of_int
let bool = string_of_bool
let null_or f = function None -> "null" | Some x -> f x

let summary_json (r : Merge_flow.result) =
  Json.obj
    [ "n_individual", int r.Merge_flow.n_individual;
      "n_merged", int r.Merge_flow.n_merged;
      "reduction_percent", Json.num r.Merge_flow.reduction_percent;
      "cliques",
      int (List.length r.Merge_flow.mergeability.Mergeability.cliques);
      "quarantined", int (List.length r.Merge_flow.quarantined);
      "degraded", int (List.length r.Merge_flow.degraded) ]

(* Verdict matrix in canonical (i, j), i < j index order — never in
   hash-table order (DESIGN.md §11). *)
let mergeability_json (m : Mergeability.t) =
  let names = m.Mergeability.mode_names in
  let n = Array.length names in
  let pairs = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      let reasons = Mergeability.reasons m (i, j) in
      pairs :=
        Json.obj
          [ "a", str names.(i);
            "b", str names.(j);
            "mergeable", bool m.Mergeability.adjacency.(i).(j);
            "reason", null_or str (List.nth_opt reasons 0);
            "reasons", Json.strs reasons ]
        :: !pairs
    done
  done;
  Json.obj
    [ "modes", Json.strs (Array.to_list names);
      "cliques",
      Json.arr
        (List.map (fun c -> Json.arr (List.map int c)) m.Mergeability.cliques);
      "pairs", Json.arr !pairs ]

let group_json (g : Merge_flow.group) =
  let equiv (e : Equiv.report) =
    Json.obj
      [ "equivalent", bool e.Equiv.equivalent;
        "mismatches", int e.Equiv.mismatches ]
  in
  let refinement (r : Refine.t) =
    Json.obj
      [ "iterations", int r.Refine.iterations;
        "data_clock_fixes", int (List.length r.Refine.data_clock_fixes);
        "added_false_paths", int (List.length r.Refine.added_exceptions) ]
  in
  Json.obj
    [ "name", str g.Merge_flow.grp_mode.Mm_sdc.Mode.mode_name;
      "members", Json.strs g.Merge_flow.grp_members;
      "singleton", bool (g.Merge_flow.grp_refine = None);
      "equivalence", null_or equiv g.Merge_flow.grp_equiv;
      "refinement", null_or refinement g.Merge_flow.grp_refine;
      "lineage", Prov.to_json g.Merge_flow.grp_prov ]

let quarantined_json (q : Merge_flow.quarantined) =
  Json.obj
    [ "name", str q.Merge_flow.q_name;
      "stage", str (Merge_flow.stage_to_string q.Merge_flow.q_stage);
      "diags", Diag.render_json q.Merge_flow.q_diags ]

(* Only outcome-affecting governance decisions are reported here; the
   govern.* counters live in the metrics export. *)
let governance_json (g : Merge_flow.governed) =
  let event (e : Merge_flow.govern_event) =
    Json.obj
      [ "stage", str e.Merge_flow.ge_stage;
        "scope", str e.Merge_flow.ge_scope;
        "action", str e.Merge_flow.ge_action;
        "detail", str e.Merge_flow.ge_detail ]
  in
  Json.obj
    [ "clique_splits", int g.Merge_flow.gov_clique_splits;
      "budget_quarantines", int g.Merge_flow.gov_budget_quarantines;
      "conservative_pairs", int g.Merge_flow.gov_conservative_pairs;
      "deadline_hit", bool g.Merge_flow.gov_deadline_hit;
      "events", Json.arr (List.map event g.Merge_flow.gov_events) ]

let to_json (r : Merge_flow.result) =
  Json.obj
    [ "audit_schema_version", int schema_version;
      "summary", summary_json r;
      "mergeability", mergeability_json r.Merge_flow.mergeability;
      "groups", Json.arr (List.map group_json r.Merge_flow.groups);
      "quarantined",
      Json.arr (List.map quarantined_json r.Merge_flow.quarantined);
      "degraded", Json.arr (List.map Json.strs r.Merge_flow.degraded);
      "governance", governance_json r.Merge_flow.governed;
      "coverage",
      Json.obj (List.map (fun (name, n) -> name, int n) r.Merge_flow.coverage) ]

let write path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_json r);
      output_char oc '\n')
