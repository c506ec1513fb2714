(* Provenance & audit tests (tier-1).

   Golden checks of the audit report on the paper circuit (stable ids,
   mandatory schema keys, evidence on every refinement false path) and
   a property: [modemerge explain] can resolve a lineage chain for
   EVERY line of the merged SDC, at jobs=1 and jobs=4, with identical
   provenance both times. *)

module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Parser = Mm_sdc.Parser
module Metrics = Mm_util.Metrics
module Prov = Mm_util.Prov
module Merge_flow = Mm_core.Merge_flow
module Provenance = Mm_core.Provenance
module Audit = Mm_core.Audit
module Pc = Mm_workload.Paper_circuit
module Gen_design = Mm_workload.Gen_design
module Gen_modes = Mm_workload.Gen_modes

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let paper_result ~jobs () =
  let d = Pc.build () in
  let a, b = Pc.constraint_set6 d in
  Merge_flow.run ~jobs [ a; b ]

let contains ~needle hay =
  let nh = String.length needle and lh = String.length hay in
  let rec go i = i + nh <= lh && (String.sub hay i nh = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Audit golden checks on the paper circuit                            *)

let test_audit_mandatory_keys () =
  let json = Audit.to_json (paper_result ~jobs:1 ()) in
  List.iter
    (fun k ->
      check Alcotest.bool (Printf.sprintf "audit has %S" k) true
        (contains ~needle:(Printf.sprintf "%S" k) json))
    Audit.mandatory_keys;
  check Alcotest.bool "schema version" true
    (contains ~needle:"\"audit_schema_version\":2" json)

let test_audit_stable_ids () =
  let r = paper_result ~jobs:1 () in
  List.iter
    (fun (g : Merge_flow.group) ->
      let store = g.Merge_flow.grp_prov in
      let scope = Prov.scope store in
      let n_cmds = List.length (Mode.to_commands g.Merge_flow.grp_mode) in
      check Alcotest.int
        (scope ^ ": one lineage entry per emitted command")
        n_cmds (Prov.length store);
      List.iteri
        (fun i (e : Prov.entry) ->
          check Alcotest.string "id scheme"
            (Printf.sprintf "%s#c%d" scope i)
            e.Prov.pv_id)
        (Prov.entries store))
    r.Merge_flow.groups

let test_audit_refinement_evidence () =
  let r = paper_result ~jobs:1 () in
  let saw_refinement = ref false in
  List.iter
    (fun (g : Merge_flow.group) ->
      List.iter
        (fun (e : Prov.entry) ->
          match e.Prov.pv_origin with
          | Prov.Data_clock_refinement | Prov.Comparison_fix _ ->
            saw_refinement := true;
            check Alcotest.bool
              (e.Prov.pv_id ^ ": refinement false path carries evidence")
              true
              (e.Prov.pv_evidence <> []);
            List.iter
              (fun record ->
                check Alcotest.bool
                  (e.Prov.pv_id ^ ": evidence record is non-empty")
                  true (record <> []))
              e.Prov.pv_evidence
          | Prov.Union | Prov.Intersection | Prov.Tolerance_merge
          | Prov.Uniquification ->
            check Alcotest.bool
              (e.Prov.pv_id ^ ": merged constraint lists contributing modes")
              true
              (e.Prov.pv_modes <> [])
          | Prov.Derived_exclusivity | Prov.Inherited | Prov.Clock_refinement
            ->
            ())
        (Prov.entries g.Merge_flow.grp_prov))
    r.Merge_flow.groups;
  (* Constraint Set 6 is the 3-pass demo: it must actually exercise the
     refinement lineage, otherwise this test checks nothing. *)
  check Alcotest.bool "paper circuit produced refinement false paths" true
    !saw_refinement

let test_audit_jobs_invariant () =
  let j1 = Audit.to_json (paper_result ~jobs:1 ()) in
  let j4 = Audit.to_json (paper_result ~jobs:4 ()) in
  check Alcotest.string "audit bytes identical at jobs=1 and jobs=4" j1 j4

(* The coverage section counts this merge alone, not every merge the
   process has run: a second identical merge reports the same counts. *)
let test_audit_repeat_identical () =
  let r1 = paper_result ~jobs:1 () in
  let r2 = paper_result ~jobs:1 () in
  check Alcotest.int "the merge checked its one pair" 1
    (List.assoc "merge.pairs_checked" r2.Merge_flow.coverage);
  check Alcotest.string "second audit identical to the first"
    (Audit.to_json r1) (Audit.to_json r2)

let test_annotated_sdc () =
  let r = paper_result ~jobs:1 () in
  List.iter
    (fun (g : Merge_flow.group) ->
      let store = g.Merge_flow.grp_prov in
      let mode = g.Merge_flow.grp_mode in
      let text = Provenance.annotated_sdc store mode in
      let prov_lines =
        List.filter
          (fun l -> String.length l >= 7 && String.sub l 0 7 = "# prov:")
          (String.split_on_char '\n' text)
      in
      check Alcotest.int "one prov comment per constraint"
        (Prov.length store) (List.length prov_lines);
      (* Comments must not change what the file parses to. *)
      check Alcotest.int "annotated SDC round-trips"
        (List.length (Mode.to_commands mode))
        (List.length (Parser.parse_string text)))
    r.Merge_flow.groups

(* ------------------------------------------------------------------ *)
(* Property: every merged-SDC line explains, at jobs=1 and jobs=4      *)

let sdc_lines mode =
  List.filter
    (fun l ->
      let l = String.trim l in
      l <> "" && l.[0] <> '#')
    (String.split_on_char '\n' (Mode.to_sdc mode))

let workload_sources seed =
  let params =
    {
      Gen_design.default_params with
      Gen_design.seed;
      n_domains = 2;
      regs_per_domain = 12;
    }
  in
  let design, info = Gen_design.generate params in
  let suite =
    {
      Gen_modes.sp_seed = seed + 1;
      families = [ 2; 2 ];
      base_period = 2.0;
      scan_family = true;
    }
  in
  let sources =
    List.concat
      (List.mapi
         (fun family n ->
           List.init n (fun index ->
               {
                 Merge_flow.src_name = Printf.sprintf "m%d_%d" family index;
                 src_file = None;
                 src_text = Gen_modes.sdc_of_mode_spec info suite ~family ~index;
               }))
         suite.Gen_modes.families)
  in
  design, sources

let explains_every_line seed =
  let design, sources = workload_sources seed in
  let lineage_at jobs =
    Metrics.reset ();
    let r = Merge_flow.run_sources ~jobs ~design sources in
    List.map
      (fun (g : Merge_flow.group) ->
        List.iter
          (fun line ->
            if Prov.find_line g.Merge_flow.grp_prov line = [] then
              Alcotest.failf "seed %d jobs %d: no lineage for %S in %s" seed
                jobs line
                (Prov.scope g.Merge_flow.grp_prov))
          (sdc_lines g.Merge_flow.grp_mode);
        Prov.to_json g.Merge_flow.grp_prov)
      r.Merge_flow.groups
  in
  lineage_at 1 = lineage_at 4

let prop_explains =
  QCheck.Test.make ~name:"every merged SDC line has jobs-invariant lineage"
    ~count:6
    QCheck.(map (fun i -> 1 + (abs i mod 1000)) int)
    explains_every_line

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "provenance"
    [
      ( "audit",
        [
          tc "mandatory schema keys" test_audit_mandatory_keys;
          tc "stable ids cover every command" test_audit_stable_ids;
          tc "refinement evidence and contributing modes"
            test_audit_refinement_evidence;
          tc "byte-identical across jobs" test_audit_jobs_invariant;
          tc "a repeated merge reports its own coverage"
            test_audit_repeat_identical;
          tc "annotated SDC" test_annotated_sdc;
        ] );
      ( "explain",
        [ QCheck_alcotest.to_alcotest prop_explains ] );
    ]
