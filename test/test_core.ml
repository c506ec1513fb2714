(* Tests for Mm_core: relation propagation, the 3-pass comparison,
   preliminary merging (all section-3.1 steps), refinement,
   equivalence checking, mergeability and the full flow — anchored on
   the paper's worked examples (Constraint Sets 1-6, Tables 1-4). *)
module Design = Mm_netlist.Design
module Library = Mm_netlist.Library
module Resolve = Mm_sdc.Resolve
module Mode = Mm_sdc.Mode
module Context = Mm_timing.Context
module Cs = Mm_timing.Constraint_state
module Pc = Mm_workload.Paper_circuit
module Relation = Mm_core.Relation
module Relation_prop = Mm_core.Relation_prop
module Compare = Mm_core.Compare
module Prelim = Mm_core.Prelim
module Refine = Mm_core.Refine
module Equiv = Mm_core.Equiv
module Mergeability = Mm_core.Mergeability
module Merge_flow = Mm_core.Merge_flow

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let resolve d name src =
  let r = Resolve.mode_of_string d ~name src in
  (match Resolve.warnings r with
  | [] -> ()
  | w -> Alcotest.failf "resolve warnings: %s" (String.concat "; " w));
  r.Resolve.mode

(* A context cache holding the individual modes' contexts, and the
   number of contexts a call builds from scratch. *)
let warm_cache modes =
  let c = Mm_timing.Ctx_cache.create () in
  List.iter (fun m -> ignore (Mm_timing.Ctx_cache.find c m)) modes;
  c

let count_builds f =
  let builds () = Mm_util.Metrics.get_counter "timing.context_builds" in
  let b0 = builds () in
  let v = f () in
  v, builds () - b0

(* ------------------------------------------------------------------ *)
(* Relation                                                            *)

let rel l c s h = Relation.make ~launch:l ~capture:c ~setup:s ~hold:h ()

let relation_cases =
  [
    tc "normalize sorts and dedups" (fun () ->
        let a = rel "b" "b" Cs.Valid Cs.Valid and b = rel "a" "a" Cs.False_path Cs.False_path in
        check Alcotest.int "dedup" 2 (List.length (Relation.normalize [ a; b; a ]));
        check Alcotest.bool "sorted" true
          (List.hd (Relation.normalize [ a; b ]) = b));
    tc "rename maps both clocks" (fun () ->
        let r = Relation.rename (fun c -> c ^ "_1") (rel "x" "y" Cs.Valid Cs.Valid) in
        check Alcotest.string "launch" "x_1" r.Relation.launch;
        check Alcotest.string "capture" "y_1" r.Relation.capture);
    tc "states_of collects distinct setup states" (fun () ->
        let rs = [ rel "a" "a" Cs.Valid Cs.Valid; rel "a" "b" Cs.Valid Cs.False_path ] in
        check Alcotest.int "one" 1 (List.length (Relation.states_of rs)));
    tc "set_to_string paper style" (fun () ->
        check Alcotest.string "fp v" "FP, V"
          (Relation.set_to_string
             [ rel "a" "a" Cs.False_path Cs.False_path; rel "a" "a" Cs.Valid Cs.Valid ]));
  ]

(* ------------------------------------------------------------------ *)
(* Relation_prop: Table 1 exactly                                      *)

let find_rels d rels name =
  let pin = Design.pin_of_name_exn d name in
  match List.assoc_opt pin rels with Some r -> r | None -> []

let relprop_cases =
  [
    tc "Table 1 states" (fun () ->
        let d = Pc.build () in
        let ctx = Context.create d (Pc.constraint_set1 d) in
        let rels = Relation_prop.endpoint_relations ctx in
        let setup name =
          List.map (fun r -> r.Relation.setup_state) (find_rels d rels name)
        in
        check Alcotest.(list string) "rX MCP(2)" [ "MCP(2)" ]
          (List.map Cs.to_string (setup "rX/D"));
        check Alcotest.(list string) "rY FP" [ "FP" ]
          (List.map Cs.to_string (setup "rY/D"));
        check Alcotest.(list string) "rZ valid" [ "V" ]
          (List.map Cs.to_string (setup "rZ/D")));
    tc "FP overrides MCP on overlapping path" (fun () ->
        (* Path ii has both constraints; rY/D must report FP only. *)
        let d = Pc.build () in
        let ctx = Context.create d (Pc.constraint_set1 d) in
        let rels = Relation_prop.endpoint_relations ctx in
        check Alcotest.bool "no MCP at rY" true
          (List.for_all
             (fun r -> r.Relation.setup_state <> Cs.Multicycle 2)
             (find_rels d rels "rY/D")));
    tc "data clock masks stop at constants" (fun () ->
        let d = Pc.build () in
        let _a, b = Pc.constraint_set5 d in
        let ctx = Context.create d b in
        let masks = Relation_prop.data_clock_masks ctx in
        (* In mode B rB/Q is case 0: no launch tag. *)
        check Alcotest.int "rB/Q silent" 0
          masks.(Design.pin_of_name_exn d "rB/Q"));
    tc "cones are directional" (fun () ->
        let d = Pc.build () in
        let ctx = Context.create d (Pc.constraint_set1 d) in
        let marks = Relation_prop.create_marks ctx.Context.graph in
        let fwd = Relation_prop.forward_cone marks ctx [ Design.pin_of_name_exn d "rA/Q" ] in
        let fwd = Relation_prop.in_cone fwd in
        check Alcotest.bool "reaches rY/D" true
          (fwd (Design.pin_of_name_exn d "rY/D"));
        check Alcotest.bool "not rZ/D" false (fwd (Design.pin_of_name_exn d "rZ/D"));
        let bwd = Relation_prop.backward_cone marks ctx [ Design.pin_of_name_exn d "rY/D" ] in
        check Alcotest.bool "back to rB/Q" true
          (Relation_prop.in_cone bwd (Design.pin_of_name_exn d "rB/Q")));
  ]

(* ------------------------------------------------------------------ *)
(* Compare: Tables 2-4 exactly                                         *)

let set6_compare () =
  let d = Pc.build () in
  let a, b = Pc.constraint_set6 d in
  let prelim = Prelim.merge ~name:"A+B" [ a; b ] in
  let sides =
    List.map
      (fun (m : Mode.t) ->
        { Compare.ctx = Context.create d m; rename = Prelim.rename_of prelim m.Mode.mode_name })
      [ a; b ]
  in
  let merged = Context.create d prelim.Prelim.merged in
  d, Compare.run ~individual:sides ~merged ()

let verdict_at rows pin_of get d name =
  List.filter_map
    (fun r ->
      let ep, bucket = get r in
      if ep = Design.pin_of_name_exn d name then Some bucket.Compare.bk_verdict
      else None)
    rows
  |> fun l -> ignore pin_of; l

(* A chain of [k] reconvergent diamonds (two BUFs into an OR2) from
   rS/Q to rE/D on clock c. The individual mode false-paths the paths
   through the last diamond's first arm; the merged mode has only the
   clock. One comparison's verdict. *)
let diamond_verdict k =
  let d = Design.create "diamonds" in
  ignore (Design.add_port d "c" Design.In);
  ignore (Design.add_inst d "rS" Library.dff);
  ignore (Design.add_inst d "rE" Library.dff);
  Design.wire d "n_c" [ "c"; "rS/CP"; "rE/CP" ];
  let prev = ref "rS/Q" in
  for i = 0 to k - 1 do
    let arm j = Printf.sprintf "b%d_%d" i j and a = Printf.sprintf "a%d" i in
    ignore (Design.add_inst d (arm 0) Library.buf);
    ignore (Design.add_inst d (arm 1) Library.buf);
    ignore (Design.add_inst d a Library.or2);
    Design.wire d (Printf.sprintf "n_x%d" i) [ !prev; arm 0 ^ "/A"; arm 1 ^ "/A" ];
    Design.wire d (Printf.sprintf "n_y%d_0" i) [ arm 0 ^ "/Z"; a ^ "/A" ];
    Design.wire d (Printf.sprintf "n_y%d_1" i) [ arm 1 ^ "/Z"; a ^ "/B" ];
    prev := a ^ "/Z"
  done;
  Design.wire d "n_e" [ !prev; "rE/D" ];
  let clock = "create_clock -name c -period 10 [get_ports c]\n" in
  let ind =
    resolve d "ind"
      (clock
      ^ Printf.sprintf
          "set_false_path -from [get_pins rS/CP] -through [get_pins b%d_0/Z] \
           -to [get_pins rE/D]"
          (k - 1))
  in
  let merged = resolve d "mrg" clock in
  Equiv.of_compare
    (Compare.run
       ~individual:[ { Compare.ctx = Context.create d ind; rename = Fun.id } ]
       ~merged:(Context.create d merged) ())

let compare_cases =
  [
    tc "Table 2 verdicts (X, A, A)" (fun () ->
        let d, cmp = set6_compare () in
        let v name =
          verdict_at cmp.Compare.pass1 () (fun r -> r.Compare.p1_ep, r.Compare.p1_bucket) d name
        in
        check Alcotest.(list string) "rX mismatch" [ "X" ]
          (List.map Compare.verdict_to_string (v "rX/D"));
        check Alcotest.(list string) "rY ambiguous" [ "A" ]
          (List.map Compare.verdict_to_string (v "rY/D"));
        check Alcotest.(list string) "rZ ambiguous" [ "A" ]
          (List.map Compare.verdict_to_string (v "rZ/D")));
    tc "Table 3 rows" (fun () ->
        let d, cmp = set6_compare () in
        let row sp ep =
          List.find_map
            (fun r ->
              if
                r.Compare.p2_sp = Design.pin_of_name_exn d sp
                && r.Compare.p2_ep = Design.pin_of_name_exn d ep
              then Some r.Compare.p2_bucket.Compare.bk_verdict
              else None)
            cmp.Compare.pass2
        in
        check Alcotest.(option string) "rA->rY X" (Some "X")
          (Option.map Compare.verdict_to_string (row "rA/CP" "rY/D"));
        check Alcotest.(option string) "rB->rY M" (Some "M")
          (Option.map Compare.verdict_to_string (row "rB/CP" "rY/D"));
        check Alcotest.(option string) "rC->rZ A" (Some "A")
          (Option.map Compare.verdict_to_string (row "rC/CP" "rZ/D")));
    tc "Table 4 rows" (fun () ->
        let d, cmp = set6_compare () in
        let row through =
          List.find_map
            (fun r ->
              if r.Compare.p3_through = Design.pin_of_name_exn d through then
                Some r.Compare.p3_bucket.Compare.bk_verdict
              else None)
            cmp.Compare.pass3
        in
        check Alcotest.(option string) "inv3/A X" (Some "X")
          (Option.map Compare.verdict_to_string (row "inv3/A"));
        check Alcotest.(option string) "and2/A M" (Some "M")
          (Option.map Compare.verdict_to_string (row "and2/A")));
    tc "fixes reproduce CSTR1-3" (fun () ->
        let d, cmp = set6_compare () in
        let texts =
          List.map
            (fun (f : Compare.fix) ->
              Mm_sdc.Writer.write_command (Mode.commands_of_exc d f.Compare.fix_exc))
            cmp.Compare.fixes
        in
        check Alcotest.bool "cstr1" true
          (List.mem "set_false_path -to [get_pins rX/D]" texts);
        check Alcotest.bool "cstr2" true
          (List.mem "set_false_path -from [get_pins rA/CP] -to [get_pins rY/D]" texts);
        check Alcotest.bool "cstr3" true
          (List.mem
             "set_false_path -from [get_pins rC/CP] -through [get_pins inv3/A] -to [get_pins rZ/D]"
             texts);
        check Alcotest.int "exactly three" 3 (List.length texts));
    tc "no soundness violations on set 6" (fun () ->
        let _d, cmp = set6_compare () in
        check Alcotest.(list string) "no unsoundness" [] cmp.Compare.unsound;
        check Alcotest.(list string) "no pessimism" [] cmp.Compare.pessimism);
    tc "over-constrained merged mode is flagged" (fun () ->
        (* Hand-build a 'merged' mode that false-paths everything; the
           comparison must report soundness violations, not fixes. *)
        let d = Pc.build () in
        let a = resolve d "A" "create_clock -name c -period 10 [get_ports clk1]" in
        let bad =
          resolve d "M"
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_false_path -to [get_pins rX/D]"
        in
        let cmp =
          Compare.run
            ~individual:[ { Compare.ctx = Context.create d a; rename = Fun.id } ]
            ~merged:(Context.create d bad) ()
        in
        check Alcotest.bool "unsoundness reported" true (cmp.Compare.unsound <> []);
        check Alcotest.bool "not clean" false (Compare.is_clean cmp));
    tc "identical modes compare clean" (fun () ->
        let d = Pc.build () in
        let m = Pc.constraint_set1 d in
        let cmp =
          Compare.run
            ~individual:[ { Compare.ctx = Context.create d m; rename = Fun.id } ]
            ~merged:(Context.create d m) ()
        in
        check Alcotest.bool "clean" true (Compare.is_clean cmp);
        check Alcotest.int "no fixes" 0 (List.length cmp.Compare.fixes));
    tc "pass 3 out of budget leaves the merge undecided" (fun () ->
        (* The path's last diamond arm is false in the individual mode
           only, so every endpoint and pair stays ambiguous and pass 3
           must walk the whole chain to find the mismatch: about 1,400
           through-pins at 200 diamonds, more than its 2,000-pin budget
           at 300. *)
        let k200 = diamond_verdict 200 and k300 = diamond_verdict 300 in
        check Alcotest.int "200: the fix is found" 1 k200.Equiv.remaining_fixes;
        check Alcotest.bool "200: not equivalent" false k200.Equiv.equivalent;
        check Alcotest.int "200: decided" 0 k200.Equiv.ambiguous_final;
        check Alcotest.int "300: budget runs out first" 0
          k300.Equiv.remaining_fixes;
        check Alcotest.int "300: one pair undecided" 1 k300.Equiv.ambiguous_final;
        check Alcotest.bool "300: not equivalent" false k300.Equiv.equivalent;
        check Alcotest.bool "300: not clean" false
          (Compare.is_clean k300.Equiv.compare_result));
  ]

(* ------------------------------------------------------------------ *)
(* Prelim: sections 3.1.1-3.1.10                                       *)

let prelim_cases =
  [
    tc "3.1.1 clock union with rename (Constraint Set 2)" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set2 d in
        let p = Prelim.merge ~name:"A+B" [ a; b ] in
        check Alcotest.(list string) "four clocks"
          [ "clkA"; "clkB"; "clkB_1"; "clkD" ]
          (Mode.clock_names p.Prelim.merged);
        check Alcotest.string "B's clkB renamed" "clkB_1"
          (Prelim.rename_of p "B" "clkB");
        check Alcotest.string "B's clkC maps to clkB" "clkB"
          (Prelim.rename_of p "B" "clkC");
        check Alcotest.string "A's clkA unchanged" "clkA"
          (Prelim.rename_of p "A" "clkA"));
    tc "3.1.2 latency merged to min of mins" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set2 d in
        let p = Prelim.merge ~name:"A+B" [ a; b ] in
        let attr = Mode.attr_of_clock p.Prelim.merged "clkB" in
        check Alcotest.bool "0.98" true (attr.Mode.src_latency_min = Some 0.98);
        check Alcotest.(list string) "no conflicts" [] p.Prelim.conflicts);
    tc "3.1.2 beyond tolerance is a conflict" (fun () ->
        let d = Pc.build () in
        let a =
          resolve d "A"
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_clock_latency -source -min 1.0 [get_clocks c]"
        and b =
          resolve d "B"
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_clock_latency -source -min 2.0 [get_clocks c]"
        in
        let p = Prelim.merge ~name:"M" [ a; b ] in
        check Alcotest.bool "conflict" true (p.Prelim.conflicts <> []));
    tc "3.1.3 io delays unioned with add_delay" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set5 d in
        let p = Prelim.merge ~name:"A+B" [ a; b ] in
        let ins =
          List.filter (fun x -> x.Mode.iod_input) p.Prelim.merged.Mode.io_delays
        in
        check Alcotest.int "two input delays" 2 (List.length ins);
        check Alcotest.int "one add_delay" 1
          (List.length (List.filter (fun x -> x.Mode.iod_add) ins)));
    tc "3.1.4 agreeing cases kept, conflicting dropped" (fun () ->
        let d = Pc.build () in
        let a =
          resolve d "A"
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_case_analysis 0 sel1\nset_case_analysis 1 sel2"
        and b =
          resolve d "B"
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_case_analysis 0 sel1\nset_case_analysis 0 sel2"
        in
        let p = Prelim.merge ~name:"M" [ a; b ] in
        check Alcotest.int "sel1 kept" 1 (List.length p.Prelim.merged.Mode.cases);
        check Alcotest.int "sel2 dropped twice" 2
          (List.length p.Prelim.dropped_cases));
    tc "3.1.4 case present in one mode only is dropped" (fun () ->
        let d = Pc.build () in
        let a =
          resolve d "A"
            "create_clock -name c -period 10 [get_ports clk1]\nset_case_analysis 0 sel1"
        and b = resolve d "B" "create_clock -name c -period 10 [get_ports clk1]" in
        let p = Prelim.merge ~name:"M" [ a; b ] in
        check Alcotest.int "dropped" 0 (List.length p.Prelim.merged.Mode.cases));
    tc "3.1.5 disable intersection" (fun () ->
        let d = Pc.build () in
        let a =
          resolve d "A"
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_disable_timing inv1/A\nset_disable_timing inv2/A"
        and b =
          resolve d "B"
            "create_clock -name c -period 10 [get_ports clk1]\nset_disable_timing inv1/A"
        in
        let p = Prelim.merge ~name:"M" [ a; b ] in
        check Alcotest.int "only common" 1 (List.length p.Prelim.merged.Mode.disables));
    tc "3.1.6 env conflict flagged" (fun () ->
        let d = Pc.build () in
        let a =
          resolve d "A"
            "create_clock -name c -period 10 [get_ports clk1]\nset_load 0.01 [get_ports out1]"
        and b =
          resolve d "B"
            "create_clock -name c -period 10 [get_ports clk1]\nset_load 0.03 [get_ports out1]"
        in
        let p = Prelim.merge ~name:"M" [ a; b ] in
        check Alcotest.bool "conflict" true (p.Prelim.conflicts <> []));
    tc "3.1.7 clock exclusivity derived for non-coexisting clocks" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set5 d in
        let p = Prelim.merge ~name:"A+B" [ a; b ] in
        check Alcotest.int "one exclusive group" 1
          (List.length p.Prelim.merged.Mode.groups));
    tc "3.1.7 coexisting clocks are not separated" (fun () ->
        let d = Pc.build () in
        let a =
          resolve d "A"
            "create_clock -name x -period 10 [get_ports clk1]\n\
             create_clock -name y -period 5 [get_ports clk2]"
        in
        let p = Prelim.merge ~name:"M" [ a; a ] in
        check Alcotest.int "no groups" 0 (List.length p.Prelim.merged.Mode.groups));
    tc "3.1.8 clock refinement (Constraint Set 3)" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set3 d in
        let p = Prelim.merge ~name:"A+B" [ a; b ] in
        check
          Alcotest.(list string)
          "disables sel1 sel2" [ "sel1"; "sel2" ]
          (List.map (Design.pin_name d) p.Prelim.inferred_disables);
        check
          Alcotest.(list (pair string string))
          "stops clkA at mux1/Z"
          [ "clkA", "mux1/Z" ]
          (List.map (fun (c, pin) -> c, Design.pin_name d pin) p.Prelim.inferred_senses));
    tc "3.1.9 common exceptions added directly" (fun () ->
        let d = Pc.build () in
        let src =
          "create_clock -name c -period 10 [get_ports clk1]\n\
           set_multicycle_path 2 -through [get_pins inv1/Z]"
        in
        let a = resolve d "A" src and b = resolve d "B" src in
        let p = Prelim.merge ~name:"M" [ a; b ] in
        check Alcotest.int "one exception" 1
          (List.length p.Prelim.merged.Mode.exceptions);
        check Alcotest.int "nothing dropped" 0
          (List.length p.Prelim.dropped_exceptions));
    tc "3.1.10 uniquification (Constraint Set 4)" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set4 d in
        let p = Prelim.merge ~name:"A'+B" [ a; b ] in
        match p.Prelim.uniquified with
        | [ (mode_name, e) ] ->
          check Alcotest.string "from mode A" "A" mode_name;
          check Alcotest.string "rewritten form"
            "set_multicycle_path 2 -from [get_clocks clkA] -through [get_pins rA/CP]"
            (Mm_sdc.Writer.write_command (Mode.commands_of_exc d e))
        | _ -> Alcotest.fail "expected exactly one uniquified exception");
    tc "3.1.10 shared-clock FP is dropped not uniquified" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set6 d in
        let p = Prelim.merge ~name:"A+B" [ a; b ] in
        check Alcotest.int "all dropped" 5 (List.length p.Prelim.dropped_exceptions);
        check Alcotest.int "none added" 0
          (List.length p.Prelim.merged.Mode.exceptions));
    tc "3.1.10 shared-clock MCP is a conflict" (fun () ->
        let d = Pc.build () in
        let a =
          resolve d "A"
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_multicycle_path 2 -to [get_pins rX/D]"
        and b = resolve d "B" "create_clock -name c -period 10 [get_ports clk1]" in
        let p = Prelim.merge ~name:"M" [ a; b ] in
        check Alcotest.bool "conflict" true (p.Prelim.conflicts <> []));
    tc "inherited clock groups survive with renamed clocks" (fun () ->
        let d = Pc.build () in
        let src p2 =
          Printf.sprintf
            "create_clock -name x -period 10 [get_ports clk1]\n\
             create_clock -name y -period %g [get_ports clk2]\n\
             set_clock_groups -asynchronous -group [get_clocks x] -group [get_clocks y]"
            p2
        in
        let a = resolve d "A" (src 5.) and b = resolve d "B" (src 7.) in
        let p = Prelim.merge ~name:"M" [ a; b ] in
        (* B's y has a different period -> renamed y_1; its inherited
           group must reference the renamed clock. *)
        check Alcotest.bool "renamed group present" true
          (List.exists
             (fun g -> List.mem [ "y_1" ] g.Mode.grp_clocks)
             p.Prelim.merged.Mode.groups));
    tc "propagated flag is OR across modes" (fun () ->
        let d = Pc.build () in
        let a =
          resolve d "A"
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_propagated_clock [get_clocks c]"
        and b = resolve d "B" "create_clock -name c -period 10 [get_ports clk1]" in
        let p = Prelim.merge ~name:"M" [ a; b ] in
        check Alcotest.bool "propagated" true
          (Mode.attr_of_clock p.Prelim.merged "c").Mode.propagated);
    tc "uncertainty merged to max" (fun () ->
        let d = Pc.build () in
        let mk name v =
          resolve d name
            (Printf.sprintf
               "create_clock -name c -period 10 [get_ports clk1]\n\
                set_clock_uncertainty -setup %g [get_clocks c]"
               v)
        in
        let p = Prelim.merge ~name:"M" [ mk "A" 0.10; mk "B" 0.101 ] in
        check Alcotest.bool "max kept" true
          ((Mode.attr_of_clock p.Prelim.merged "c").Mode.uncertainty_setup
          = Some 0.101));
    tc "env constraints merged to the heavier value" (fun () ->
        let d = Pc.build () in
        let mk name v =
          resolve d name
            (Printf.sprintf
               "create_clock -name c -period 10 [get_ports clk1]\n\
                set_load %g [get_ports out1]"
               v)
        in
        let p = Prelim.merge ~name:"M" [ mk "A" 0.0100; mk "B" 0.0101 ] in
        check Alcotest.(list string) "within tolerance" [] p.Prelim.conflicts;
        match p.Prelim.merged.Mode.envs with
        | [ e ] -> check (Alcotest.float 1e-12) "max" 0.0101 e.Mode.envc_value
        | _ -> Alcotest.fail "one env expected");
    tc "merging a mode with itself is identity-like" (fun () ->
        let d = Pc.build () in
        let m = Pc.constraint_set1 d in
        let p = Prelim.merge ~name:"M" [ m; m ] in
        check Alcotest.(list string) "clocks" (Mode.clock_names m)
          (Mode.clock_names p.Prelim.merged);
        check Alcotest.int "exceptions" 2
          (List.length p.Prelim.merged.Mode.exceptions);
        check Alcotest.(list string) "no conflicts" [] p.Prelim.conflicts);
  ]

(* ------------------------------------------------------------------ *)
(* Refine + Equiv                                                      *)

let refine_cases =
  [
    tc "data refinement adds CSTR6 (Constraint Set 5)" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set5 d in
        let prelim = Prelim.merge ~name:"A+B" [ a; b ] in
        let r = Refine.run ~prelim ~individual:[ a; b ] () in
        check
          Alcotest.(list (pair string string))
          "stop ClkB at rB/Q"
          [ "ClkB", "rB/Q" ]
          (List.map
             (fun (c, p) -> c, Design.pin_name d p)
             r.Refine.data_clock_fixes));
    tc "refined set 6 is equivalent" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set6 d in
        let prelim = Prelim.merge ~name:"A+B" [ a; b ] in
        let r = Refine.run ~prelim ~individual:[ a; b ] () in
        check Alcotest.bool "final compare clean" true
          (Compare.is_clean r.Refine.final_compare);
        let e =
          Equiv.check ~individual:[ a; b ]
            ~rename:(Prelim.rename_of prelim)
            ~merged:r.Refine.refined ()
        in
        check Alcotest.bool "equivalent" true e.Equiv.equivalent;
        check Alcotest.int "three exceptions added" 3
          (List.length r.Refine.added_exceptions));
    tc "equiv detects a missing refinement constraint" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set6 d in
        let prelim = Prelim.merge ~name:"A+B" [ a; b ] in
        (* The unrefined preliminary mode times extra paths. *)
        let e =
          Equiv.check ~individual:[ a; b ]
            ~rename:(Prelim.rename_of prelim)
            ~merged:prelim.Prelim.merged ()
        in
        check Alcotest.bool "not equivalent" false e.Equiv.equivalent;
        check Alcotest.bool "mismatches found" true (e.Equiv.mismatches > 0));
    tc "refinement is idempotent" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set6 d in
        let prelim = Prelim.merge ~name:"A+B" [ a; b ] in
        let r1 = Refine.run ~prelim ~individual:[ a; b ] () in
        let prelim2 = { prelim with Prelim.merged = r1.Refine.refined } in
        let r2 = Refine.run ~prelim:prelim2 ~individual:[ a; b ] () in
        check Alcotest.int "nothing more to add" 0
          (List.length r2.Refine.added_exceptions);
        ignore d);
  ]

(* ------------------------------------------------------------------ *)
(* Mergeability + Merge_flow                                           *)

let merge_cases =
  [
    tc "hard conflicts veto pairs" (fun () ->
        let d = Pc.build () in
        let a =
          resolve d "A"
            "create_clock -name c -period 10 [get_ports clk1]\nset_load 0.01 [get_ports out1]"
        and b =
          resolve d "B"
            "create_clock -name c -period 10 [get_ports clk1]\nset_load 0.05 [get_ports out1]"
        in
        let pc = Mergeability.check_pair a b in
        check Alcotest.bool "not mergeable" false pc.Mergeability.mergeable;
        check Alcotest.bool "has reason" true (pc.Mergeability.reasons <> []));
    tc "compatible modes are mergeable" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set6 d in
        let pc = Mergeability.check_pair a b in
        check Alcotest.bool "mergeable" true pc.Mergeability.mergeable);
    tc "an accepted pair builds one merged context" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set6 d in
        let ctx_cache = warm_cache [ a; b ] in
        let converged =
          Prelim.merge ~max_refine_iters:3 ~ctx_cache ~name:"__mock" [ a; b ]
        in
        check Alcotest.bool "clock refinement converges" true
          (converged.Prelim.merged_ctx <> None);
        let pc, n = count_builds (fun () -> Mergeability.check_pair ~ctx_cache a b) in
        check Alcotest.bool "mergeable" true pc.Mergeability.mergeable;
        check Alcotest.int "merged contexts built" 1 n);
    tc "a clique merge builds its merged context once" (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set6 d in
        let ctx_cache = warm_cache [ a; b ] in
        let (prelim, r), n =
          count_builds (fun () ->
              let prelim = Prelim.merge ~ctx_cache ~name:"A+B" [ a; b ] in
              prelim, Refine.run ~ctx_cache ~prelim ~individual:[ a; b ] ())
        in
        check Alcotest.int "merged contexts built" 1 n;
        match prelim.Prelim.merged_ctx, r.Refine.refined_ctx with
        | Some p, Some f ->
          check Alcotest.bool "refinement reuses the prelim graph" true
            (p.Context.graph == f.Context.graph
            && p.Context.consts == f.Context.consts)
        | _ -> Alcotest.fail "missing prelim or refined context");
    tc "greedy cliques cover all modes disjointly" (fun () ->
        let _design, _info, modes = Mm_workload.Presets.build Mm_workload.Presets.tiny in
        let m = Mergeability.analyze modes in
        let covered = List.concat m.Mergeability.cliques in
        check Alcotest.int "all covered" (List.length modes) (List.length covered);
        check Alcotest.int "disjoint" (List.length covered)
          (List.length (List.sort_uniq compare covered)));
    tc "tiny preset forms the expected two cliques" (fun () ->
        let _design, _info, modes = Mm_workload.Presets.build Mm_workload.Presets.tiny in
        let m = Mergeability.analyze modes in
        check Alcotest.int "two cliques" 2 (List.length m.Mergeability.cliques);
        check Alcotest.int "four edges missing across families" 2
          (List.length m.Mergeability.cliques));
    tc "full flow on tiny preset" (fun () ->
        let design, _info, modes = Mm_workload.Presets.build Mm_workload.Presets.tiny in
        let r = Merge_flow.run modes in
        check Alcotest.int "4 -> 2" 2 r.Merge_flow.n_merged;
        check (Alcotest.float 1e-6) "50%" 50. r.Merge_flow.reduction_percent;
        List.iter
          (fun (g : Merge_flow.group) ->
            match g.Merge_flow.grp_equiv with
            | Some e -> check Alcotest.bool "equivalent" true e.Equiv.equivalent
            | None -> ())
          r.Merge_flow.groups;
        ignore design);
    tc "summary row shape" (fun () ->
        let _design, _info, modes = Mm_workload.Presets.build Mm_workload.Presets.tiny in
        let r = Merge_flow.run modes in
        let row = Merge_flow.summary_row ~design_name:"T" ~size_cells:117 r in
        check Alcotest.int "six columns" 6 (List.length row);
        check Alcotest.string "name" "T" (List.hd row));
    tc "single mode passes through flow" (fun () ->
        let d = Pc.build () in
        let m = Pc.constraint_set1 d in
        let r = Merge_flow.run [ m ] in
        check Alcotest.int "one group" 1 r.Merge_flow.n_merged;
        check Alcotest.bool "same mode" true
          (List.hd (Merge_flow.merged_modes r) == m));
  ]

(* ------------------------------------------------------------------ *)
(* Soundness property on random paper-circuit mode pairs               *)

let random_mode_src rng =
  let open Mm_util.Prng in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "create_clock -name c -period 10 [get_ports clk1]\n";
  if bool rng then
    Buffer.add_string buf "create_clock -name c2 -period 5 [get_ports clk2]\n";
  List.iter
    (fun sel ->
      if bool rng then
        Buffer.add_string buf
          (Printf.sprintf "set_case_analysis %d %s\n" (int rng 2) sel))
    [ "sel1"; "sel2" ];
  List.iter
    (fun ep ->
      if int rng 4 = 0 then
        Buffer.add_string buf (Printf.sprintf "set_false_path -to %s\n" ep))
    [ "rX/D"; "rY/D"; "rZ/D" ];
  if int rng 4 = 0 then
    Buffer.add_string buf "set_false_path -through inv3/Z\n";
  Buffer.contents buf

let soundness_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"merge of random mode pairs is equivalent" ~count:25
       QCheck2.Gen.(int_range 0 100000)
       (fun seed ->
         let rng = Mm_util.Prng.create seed in
         let d = Pc.build () in
         let a = resolve d "A" (random_mode_src rng)
         and b = resolve d "B" (random_mode_src rng) in
         let pc = Mergeability.check_pair a b in
         if not pc.Mergeability.mergeable then true (* vetoed pairs are fine *)
         else begin
           let prelim = Prelim.merge ~name:"M" [ a; b ] in
           let r = Refine.run ~prelim ~individual:[ a; b ] () in
           let e =
             Equiv.check ~individual:[ a; b ]
               ~rename:(Prelim.rename_of prelim)
               ~merged:r.Refine.refined ()
           in
           e.Equiv.equivalent
         end))

let drc_and_clique_cases =
  [
    tc "DRC limits merge to the minimum" (fun () ->
        let d = Pc.build () in
        let a =
          resolve d "A"
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_max_capacitance 0.05 [get_pins rA/Q]"
        and b =
          resolve d "B"
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_max_capacitance 0.03 [get_pins rA/Q]"
        in
        let p = Prelim.merge ~name:"M" [ a; b ] in
        match p.Prelim.merged.Mode.drcs with
        | [ l ] -> check (Alcotest.float 0.) "tightest" 0.03 l.Mode.drcl_value
        | _ -> Alcotest.fail "expected one merged limit");
    tc "exact clique cover beats or matches greedy" (fun () ->
        (* A 5-vertex graph where greedy's max-degree start is
           suboptimal: exact must never use more cliques. *)
        let rng = Mm_util.Prng.create 99 in
        for _ = 1 to 50 do
          let n = 6 in
          let adj = Array.make_matrix n n false in
          for i = 0 to n - 1 do
            for j = i + 1 to n - 1 do
              let e = Mm_util.Prng.bool rng in
              adj.(i).(j) <- e;
              adj.(j).(i) <- e
            done
          done;
          let g = List.length (Mergeability.greedy_cliques adj) in
          let e = List.length (Mergeability.exact_cliques adj) in
          check Alcotest.bool "exact <= greedy" true (e <= g);
          (* cover validity *)
          let cover = List.concat (Mergeability.exact_cliques adj) in
          check Alcotest.int "covers all" n
            (List.length (List.sort_uniq compare cover))
        done);
    tc "exact cliques are actual cliques" (fun () ->
        let adj =
          [|
            [| false; true; true; false |];
            [| true; false; true; false |];
            [| true; true; false; false |];
            [| false; false; false; false |];
          |]
        in
        let cover = Mergeability.exact_cliques adj in
        check Alcotest.int "two cliques" 2 (List.length cover);
        List.iter
          (fun clique ->
            List.iter
              (fun u ->
                List.iter
                  (fun v -> if u <> v then check Alcotest.bool "edge" true adj.(u).(v))
                  clique)
              clique)
          cover);
  ]

(* ------------------------------------------------------------------ *)
(* Report rendering                                                    *)

let report_cases =
  [
    tc "relations table matches Table 1 layout" (fun () ->
        let d = Pc.build () in
        let ctx = Context.create d (Pc.constraint_set1 d) in
        let rels = Relation_prop.endpoint_relations ctx in
        let text = Mm_util.Tab.render (Mm_core.Report.relations_table d rels) in
        check Alcotest.bool "has MCP row" true (Str_probe.contains text "MCP(2)");
        check Alcotest.bool "has FP row" true (Str_probe.contains text "| FP");
        check Alcotest.bool "has header" true
          (Str_probe.contains text "Capture clock"));
    tc "pass tables carry verdict letters" (fun () ->
        let d, cmp = set6_compare () in
        let t1 = Mm_util.Tab.render (Mm_core.Report.pass1_table d cmp.Compare.pass1) in
        check Alcotest.bool "X present" true (Str_probe.contains t1 "| X");
        check Alcotest.bool "A present" true (Str_probe.contains t1 "| A");
        let t3 = Mm_util.Tab.render (Mm_core.Report.pass3_table d cmp.Compare.pass3) in
        check Alcotest.bool "through column" true (Str_probe.contains t3 "inv3/A"));
    tc "mergeability text lists cliques" (fun () ->
        let _design, _info, modes = Mm_workload.Presets.build Mm_workload.Presets.tiny in
        let m = Mergeability.analyze modes in
        let text = Mm_core.Report.mergeability_text m in
        check Alcotest.bool "m1" true (Str_probe.contains text "M1:");
        check Alcotest.bool "m2" true (Str_probe.contains text "M2:"));
    tc "flow table renders a Table-5 row" (fun () ->
        let _design, _info, modes = Mm_workload.Presets.build Mm_workload.Presets.tiny in
        let r = Merge_flow.run modes in
        let text =
          Mm_util.Tab.render
            (Mm_core.Report.flow_table ~design:"tiny" ~cells:117 r)
        in
        check Alcotest.bool "name cell" true (Str_probe.contains text "tiny");
        check Alcotest.bool "reduction" true (Str_probe.contains text "50.0"));
    tc "fixes text includes provenance" (fun () ->
        let d, cmp = set6_compare () in
        let text = Mm_core.Report.fixes_text d cmp.Compare.fixes in
        check Alcotest.bool "reason comment" true (Str_probe.contains text "# pass1"));
  ]

(* ------------------------------------------------------------------ *)
(* Generated clocks in merging                                         *)

let genclock_cases =
  [
    tc "identical generated clocks merge as one" (fun () ->
        let d = Pc.build () in
        let src =
          "create_clock -name m -period 4 [get_ports clk1]\n\
           create_generated_clock -name g -source [get_ports clk1] -divide_by 2 \
           [get_pins mux1/Z]"
        in
        let a = resolve d "A" src and b = resolve d "B" src in
        let p = Prelim.merge ~name:"M" [ a; b ] in
        check Alcotest.(list string) "two clocks" [ "m"; "g" ]
          (Mode.clock_names p.Prelim.merged));
    tc "different divide ratios stay distinct" (fun () ->
        let d = Pc.build () in
        let mk name div =
          resolve d name
            (Printf.sprintf
               "create_clock -name m -period 4 [get_ports clk1]\n\
                create_generated_clock -name g -source [get_ports clk1] \
                -divide_by %d [get_pins mux1/Z]"
               div)
        in
        let p = Prelim.merge ~name:"M" [ mk "A" 2; mk "B" 4 ] in
        check Alcotest.(list string) "renamed" [ "m"; "g"; "g_1" ]
          (Mode.clock_names p.Prelim.merged);
        (* generated info survives serialisation *)
        let sdc = Mode.to_sdc p.Prelim.merged in
        check Alcotest.bool "divide_by in SDC" true
          (Str_probe.contains sdc "-divide_by 4"));
  ]

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)

let lint_of src =
  let d = Pc.build () in
  let m = resolve d "L" src in
  let ctx = Context.create d m in
  Mm_core.Lint.run ctx

let kinds fs = List.sort_uniq compare (List.map (fun f -> f.Mm_core.Lint.lint_kind) fs)

let lint_cases =
  [
    tc "unclocked registers flagged without clocks" (fun () ->
        let fs = lint_of "set_case_analysis 0 sel1" in
        check Alcotest.bool "flags registers" true
          (List.mem "unclocked-register" (kinds fs)));
    tc "fully constrained circuit has no clocking findings" (fun () ->
        let fs =
          lint_of
            "create_clock -name c -period 10 [get_ports clk1]\n\
             create_clock -name c2 -period 5 [get_ports clk2]\n\
             set_clock_groups -physically_exclusive -group [get_clocks c] -group [get_clocks c2]\n\
             set_input_delay 1 -clock c [get_ports {sel1 sel2 in1 clk3 clk4}]\n\
             set_output_delay 1 -clock c [get_ports out1]"
        in
        check Alcotest.bool "no unclocked" true
          (not (List.mem "unclocked-register" (kinds fs)));
        check Alcotest.bool "no unconstrained" true
          (not (List.mem "unconstrained-input" (kinds fs))));
    tc "unconstrained IO flagged" (fun () ->
        let fs = lint_of "create_clock -name c -period 10 [get_ports clk1]" in
        check Alcotest.bool "input" true (List.mem "unconstrained-input" (kinds fs));
        check Alcotest.bool "output" true
          (List.mem "unconstrained-output" (kinds fs)));
    tc "unused clock flagged" (fun () ->
        (* clk4 drives nothing in the Figure-1 circuit. *)
        let fs =
          lint_of
            "create_clock -name c -period 10 [get_ports clk1]\n\
             create_clock -name idle -period 4 [get_ports clk4]"
        in
        check Alcotest.bool "unused" true (List.mem "unused-clock" (kinds fs)));
    tc "dead through flagged" (fun () ->
        let fs =
          lint_of
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_case_analysis 0 rB/Q\n\
             set_false_path -through [get_pins and1/Z]"
        in
        check Alcotest.bool "dead" true (List.mem "dead-through" (kinds fs)));
    tc "cross-domain capture without groups flagged" (fun () ->
        let fs =
          lint_of
            "create_clock -name c -period 10 [get_ports clk1]\n\
             create_clock -name c2 -period 5 [get_ports clk2]"
        in
        check Alcotest.bool "flagged" true
          (List.mem "cross-domain-unrelated" (kinds fs));
        let fs2 =
          lint_of
            "create_clock -name c -period 10 [get_ports clk1]\n\
             create_clock -name c2 -period 5 [get_ports clk2]\n\
             set_clock_groups -asynchronous -group [get_clocks c] -group [get_clocks c2]"
        in
        check Alcotest.bool "silenced by groups" true
          (not (List.mem "cross-domain-unrelated" (kinds fs2))));
  ]

(* ------------------------------------------------------------------ *)
(* Rise/fall in merging                                                *)

let edge_merge_cases =
  [
    tc "common edge-restricted FP merges directly" (fun () ->
        let d = Pc.build () in
        let src =
          "create_clock -name c -period 10 [get_ports clk1]\n\
           set_false_path -rise_to [get_pins rX/D]"
        in
        let a = resolve d "A" src and b = resolve d "B" src in
        let p = Prelim.merge ~name:"M" [ a; b ] in
        check Alcotest.int "added once" 1
          (List.length p.Prelim.merged.Mode.exceptions);
        check Alcotest.bool "edge preserved" true
          ((List.hd p.Prelim.merged.Mode.exceptions).Mode.exc_to_edge
          = Mode.Rise_edge));
    tc "mismatched edge restrictions refine equivalently" (fun () ->
        (* A false-paths only rising arrivals at rX/D; B false-paths
           both. The merged mode must FP rise (both agree) and keep
           fall timed (valid in A). *)
        let d = Pc.build () in
        let a =
          resolve d "A"
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_false_path -rise_to [get_pins rX/D]"
        and b =
          resolve d "B"
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_false_path -to [get_pins rX/D]"
        in
        let prelim = Prelim.merge ~name:"M" [ a; b ] in
        let r = Refine.run ~prelim ~individual:[ a; b ] () in
        let e =
          Equiv.check ~individual:[ a; b ]
            ~rename:(Prelim.rename_of prelim)
            ~merged:r.Refine.refined ()
        in
        check Alcotest.bool "equivalent" true e.Equiv.equivalent;
        (* The added fix must be rise-restricted. *)
        check Alcotest.bool "rise-restricted fix" true
          (List.exists
             (fun x -> x.Mode.exc_to_edge = Mode.Rise_edge)
             r.Refine.added_exceptions));
    tc "pin-based edge-restricted exception is never uniquified" (fun () ->
        let d = Pc.build () in
        let a =
          resolve d "A"
            "create_clock -name cA -period 10 [get_ports clk1]\n\
             set_false_path -rise_from [get_pins rA/Q]"
        and b = resolve d "B" "create_clock -name cB -period 10 [get_ports clk2]" in
        let p = Prelim.merge ~name:"M" [ a; b ] in
        check Alcotest.int "dropped" 1 (List.length p.Prelim.dropped_exceptions);
        check Alcotest.int "not uniquified" 0 (List.length p.Prelim.uniquified));
  ]

let () =
  Alcotest.run "mm_core"
    [
      "edges", edge_merge_cases;
      "drc_clique", drc_and_clique_cases;
      "lint", lint_cases;
      "report", report_cases;
      "genclocks", genclock_cases;
      "relation", relation_cases;
      "relation_prop", relprop_cases;
      "compare", compare_cases;
      "prelim", prelim_cases;
      "refine", refine_cases;
      "merge", merge_cases;
      "property", [ soundness_prop ];
    ]
