module Diag = Mm_util.Diag
module Metrics = Mm_util.Metrics
module Prov = Mm_util.Prov

let schema_version = 2

let mandatory_keys =
  [
    "audit_schema_version"; "summary"; "mergeability"; "groups"; "coverage";
    "governance";
  ]

(* The coverage section reads only counters, which the parallel-stress
   contract keeps byte-identical across --jobs values; gauges (e.g.
   merge.jobs) and timings are deliberately excluded so the audit file
   itself is jobs-invariant. *)
let coverage_counters =
  [
    "compare.endpoints_visited";
    "compare.endpoints_pruned";
    "compare.pairs_compared";
    "compare.reconv_points";
    "merge.pairs_checked";
    "merge.cliques";
  ]

let str s = "\"" ^ Metrics.json_escape s ^ "\""
let str_list l = "[" ^ String.concat "," (List.map str l) ^ "]"

let summary_json (r : Merge_flow.result) =
  Printf.sprintf
    "{\"n_individual\":%d,\"n_merged\":%d,\"reduction_percent\":%s,\"cliques\":%d,\"quarantined\":%d,\"degraded\":%d}"
    r.Merge_flow.n_individual r.Merge_flow.n_merged
    (Metrics.json_float r.Merge_flow.reduction_percent)
    (List.length r.Merge_flow.mergeability.Mergeability.cliques)
    (List.length r.Merge_flow.quarantined)
    (List.length r.Merge_flow.degraded)

(* Verdict matrix in canonical (i, j), i < j index order — never in
   hash-table order (DESIGN.md §11). *)
let mergeability_json (m : Mergeability.t) =
  let names = m.Mergeability.mode_names in
  let n = Array.length names in
  let pairs = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      let mergeable = m.Mergeability.adjacency.(i).(j) in
      let reasons =
        match Hashtbl.find_opt m.Mergeability.pair_reasons (i, j) with
        | Some rs -> rs
        | None -> []
      in
      let reason =
        match reasons with [] -> "null" | r :: _ -> str r
      in
      pairs :=
        Printf.sprintf
          "{\"a\":%s,\"b\":%s,\"mergeable\":%b,\"reason\":%s,\"reasons\":%s}"
          (str names.(i)) (str names.(j)) mergeable reason (str_list reasons)
        :: !pairs
    done
  done;
  Printf.sprintf
    "{\"modes\":%s,\"cliques\":%s,\"pairs\":[%s]}"
    (str_list (Array.to_list names))
    ("["
    ^ String.concat ","
        (List.map
           (fun c ->
             "[" ^ String.concat "," (List.map string_of_int c) ^ "]")
           m.Mergeability.cliques)
    ^ "]")
    (String.concat "," !pairs)

let group_json (g : Merge_flow.group) =
  let equiv =
    match g.Merge_flow.grp_equiv with
    | None -> "null"
    | Some e ->
      Printf.sprintf "{\"equivalent\":%b,\"mismatches\":%d}" e.Equiv.equivalent
        e.Equiv.mismatches
  in
  let refinement =
    match g.Merge_flow.grp_refine with
    | None -> "null"
    | Some r ->
      Printf.sprintf
        "{\"iterations\":%d,\"data_clock_fixes\":%d,\"added_false_paths\":%d}"
        r.Refine.iterations
        (List.length r.Refine.data_clock_fixes)
        (List.length r.Refine.added_exceptions)
  in
  Printf.sprintf
    "{\"name\":%s,\"members\":%s,\"singleton\":%b,\"equivalence\":%s,\"refinement\":%s,\"lineage\":%s}"
    (str g.Merge_flow.grp_mode.Mm_sdc.Mode.mode_name)
    (str_list g.Merge_flow.grp_members)
    (g.Merge_flow.grp_refine = None)
    equiv refinement
    (Prov.to_json g.Merge_flow.grp_prov)

let quarantined_json (q : Merge_flow.quarantined) =
  Printf.sprintf "{\"name\":%s,\"stage\":%s,\"diags\":%s}"
    (str q.Merge_flow.q_name)
    (str (Merge_flow.stage_to_string q.Merge_flow.q_stage))
    (Diag.render_json q.Merge_flow.q_diags)

(* Only outcome-affecting governance decisions are reported here; the
   govern.* counters live in the metrics export. *)
let governance_json (g : Merge_flow.governed) =
  let event (e : Merge_flow.govern_event) =
    Printf.sprintf
      "{\"stage\":%s,\"scope\":%s,\"action\":%s,\"detail\":%s}"
      (str e.Merge_flow.ge_stage) (str e.Merge_flow.ge_scope)
      (str e.Merge_flow.ge_action) (str e.Merge_flow.ge_detail)
  in
  Printf.sprintf
    "{\"clique_splits\":%d,\"budget_quarantines\":%d,\"conservative_pairs\":%d,\"deadline_hit\":%b,\"events\":[%s]}"
    g.Merge_flow.gov_clique_splits g.Merge_flow.gov_budget_quarantines
    g.Merge_flow.gov_conservative_pairs g.Merge_flow.gov_deadline_hit
    (String.concat "," (List.map event g.Merge_flow.gov_events))

let coverage_json () =
  "{"
  ^ String.concat ","
      (List.map
         (fun name ->
           Printf.sprintf "%s:%d" (str name) (Metrics.get_counter name))
         coverage_counters)
  ^ "}"

let to_json (r : Merge_flow.result) =
  String.concat ""
    [
      "{\"audit_schema_version\":";
      string_of_int schema_version;
      ",\"summary\":";
      summary_json r;
      ",\"mergeability\":";
      mergeability_json r.Merge_flow.mergeability;
      ",\"groups\":[";
      String.concat "," (List.map group_json r.Merge_flow.groups);
      "],\"quarantined\":[";
      String.concat "," (List.map quarantined_json r.Merge_flow.quarantined);
      "],\"degraded\":[";
      String.concat "," (List.map str_list r.Merge_flow.degraded);
      "],\"governance\":";
      governance_json r.Merge_flow.governed;
      ",\"coverage\":";
      coverage_json ();
      "}";
    ]

let write path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_json r);
      output_char oc '\n')
