(* Tests for Mm_timing: graph construction, constant and clock
   propagation, constraint-state precedence, exception matching and the
   STA engine's check semantics. *)
module Design = Mm_netlist.Design
module Library = Mm_netlist.Library
module Logic = Mm_netlist.Logic
module Resolve = Mm_sdc.Resolve
module Mode = Mm_sdc.Mode
module Tgraph = Mm_timing.Tgraph
module Const_prop = Mm_timing.Const_prop
module Clock_prop = Mm_timing.Clock_prop
module Cs = Mm_timing.Constraint_state
module Excmatch = Mm_timing.Excmatch
module Context = Mm_timing.Context
module Sta = Mm_timing.Sta

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let resolve d src =
  let r = Resolve.mode_of_string d ~name:"t" src in
  (match Resolve.warnings r with
  | [] -> ()
  | w -> Alcotest.failf "resolve warnings: %s" (String.concat "; " w));
  r.Resolve.mode

(* A linear pipeline: clk -> r1 -> inv -> r2, plus a mux-gated clock
   branch for clock tests. *)
let pipeline () =
  let d = Design.create "pipe" in
  ignore (Design.add_port d "clk" Design.In);
  ignore (Design.add_port d "clkb" Design.In);
  ignore (Design.add_port d "sel" Design.In);
  ignore (Design.add_port d "out" Design.Out);
  ignore (Design.add_inst d "r1" Library.dff);
  ignore (Design.add_inst d "r2" Library.dff);
  ignore (Design.add_inst d "u1" Library.inv);
  ignore (Design.add_inst d "mx" Library.mux2);
  Design.wire d "n_clk" [ "clk"; "r1/CP"; "mx/D0" ];
  Design.wire d "n_clkb" [ "clkb"; "mx/D1" ];
  Design.wire d "n_sel" [ "sel"; "mx/S" ];
  Design.wire d "n_gclk" [ "mx/Z"; "r2/CP" ];
  Design.wire d "n_q1" [ "r1/Q"; "u1/A" ];
  Design.wire d "n_u1" [ "u1/Z"; "r2/D" ];
  Design.wire d "n_q2" [ "r2/Q"; "out" ];
  d

let base_clock = "create_clock -name c -period 10 [get_ports clk]\n"

(* ------------------------------------------------------------------ *)
(* Tgraph                                                              *)

let graph_cases =
  [
    tc "arc inventory" (fun () ->
        let d = pipeline () in
        let g = Tgraph.skeleton d in
        let count kind =
          let acc = ref 0 in
          for aid = 0 to Tgraph.n_arcs g - 1 do
            if Tgraph.arc_kind g aid = kind then incr acc
          done;
          !acc
        in
        (* launch: 2 flops x (Q, QN) = 4; comb: inv 1 + mux 3 = 4. *)
        check Alcotest.int "launch" 4 (count Tgraph.Launch);
        check Alcotest.int "comb" 4 (count Tgraph.Comb);
        check Alcotest.bool "nets" true (count Tgraph.Net > 0));
    tc "endpoints and startpoints" (fun () ->
        let d = pipeline () in
        let g = Tgraph.skeleton d in
        check Alcotest.int "endpoints (2 D pins + out port)" 3
          (List.length g.Tgraph.sk_endpoints);
        check Alcotest.int "startpoints (2 regs + 3 in ports)" 5
          (List.length g.Tgraph.sk_startpoints));
    tc "topological order respects arcs" (fun () ->
        let d = pipeline () in
        let g = Tgraph.skeleton d in
        let pos = g.Tgraph.topo_pos in
        for aid = 0 to Tgraph.n_arcs g - 1 do
          check Alcotest.bool "src before dst" true
            (pos.(Tgraph.arc_src g aid) < pos.(Tgraph.arc_dst g aid))
        done;
        check Alcotest.(list int) "no broken arcs" []
          g.Tgraph.broken);
    tc "combinational loop broken, not fatal" (fun () ->
        let d = Design.create "loop" in
        ignore (Design.add_inst d "a" Library.inv);
        ignore (Design.add_inst d "b" Library.inv);
        Design.wire d "n1" [ "a/Z"; "b/A" ];
        Design.wire d "n2" [ "b/Z"; "a/A" ];
        let g = Tgraph.skeleton d in
        check Alcotest.bool "loop recorded" true
          (g.Tgraph.broken <> []));
    tc "arc delays positive and min<=max" (fun () ->
        let d = pipeline () in
        let g = Tgraph.skeleton d in
        let dl = Tgraph.delays g (resolve d base_clock) in
        for aid = 0 to Tgraph.n_arcs g - 1 do
          let dmin = dl.Tgraph.dmin.(aid) and dmax = dl.Tgraph.dmax.(aid) in
          check Alcotest.bool "nonneg" true (dmin >= 0.);
          check Alcotest.bool "ordered" true (dmin <= dmax)
        done);
    tc "set_load increases driver arc delay" (fun () ->
        let d = pipeline () in
        let g = Tgraph.skeleton d in
        let bare = Tgraph.delays g (resolve d base_clock) in
        let loaded =
          Tgraph.delays g (resolve d (base_clock ^ "set_load 0.5 [get_ports out]"))
        in
        let q2 = Design.pin_of_name_exn d "r2/Q" in
        let launch_delay dl =
          let acc = ref 0. in
          for aid = 0 to Tgraph.n_arcs g - 1 do
            if Tgraph.arc_dst g aid = q2 then acc := dl.Tgraph.dmax.(aid)
          done;
          !acc
        in
        check Alcotest.bool "heavier" true (launch_delay loaded > launch_delay bare));
  ]

(* ------------------------------------------------------------------ *)
(* Const_prop                                                          *)

let const_cases =
  [
    tc "case value propagates through inverter" (fun () ->
        let d = pipeline () in
        let mode = resolve d (base_clock ^ "set_case_analysis 1 r1/Q") in
        let g = Tgraph.skeleton d in
        let cp = Const_prop.run g mode in
        check Alcotest.bool "q const" true
          (Const_prop.value cp (Design.pin_of_name_exn d "r1/Q") = Logic.T);
        check Alcotest.bool "inverted" true
          (Const_prop.value cp (Design.pin_of_name_exn d "u1/Z") = Logic.F));
    tc "mux select case disables unselected clock leg" (fun () ->
        let d = pipeline () in
        let mode = resolve d (base_clock ^ "set_case_analysis 0 sel") in
        let g = Tgraph.skeleton d in
        let cp = Const_prop.run g mode in
        let d1 = Design.pin_of_name_exn d "mx/D1" in
        let enabled_from_d1 =
          let found = ref false in
          for aid = 0 to Tgraph.n_arcs g - 1 do
            if
              Tgraph.arc_src g aid = d1
              && Tgraph.arc_kind g aid = Tgraph.Comb
              && Const_prop.enabled cp aid
            then found := true
          done;
          !found
        in
        check Alcotest.bool "D1 arc dead" false enabled_from_d1);
    tc "disable pin kills its arcs" (fun () ->
        let d = pipeline () in
        let mode = resolve d (base_clock ^ "set_disable_timing u1/A") in
        let g = Tgraph.skeleton d in
        let cp = Const_prop.run g mode in
        let a_pin = Design.pin_of_name_exn d "u1/A" in
        for aid = 0 to Tgraph.n_arcs g - 1 do
          if Tgraph.arc_src g aid = a_pin || Tgraph.arc_dst g aid = a_pin then
            check Alcotest.bool "disabled" false (Const_prop.enabled cp aid)
        done);
    tc "disable instance arc with from/to" (fun () ->
        let d = pipeline () in
        let mode =
          resolve d (base_clock ^ "set_disable_timing -from A -to Z [get_cells u1]")
        in
        let g = Tgraph.skeleton d in
        let cp = Const_prop.run g mode in
        let src = Design.pin_of_name_exn d "u1/A" in
        for aid = 0 to Tgraph.n_arcs g - 1 do
          if Tgraph.arc_src g aid = src && Tgraph.arc_kind g aid = Tgraph.Comb
          then
            check Alcotest.bool "cell arc dead" false
              (Const_prop.enabled cp aid)
        done);
    tc "pin_active reflects constants" (fun () ->
        let d = pipeline () in
        let mode = resolve d (base_clock ^ "set_case_analysis 1 r1/Q") in
        let g = Tgraph.skeleton d in
        let cp = Const_prop.run g mode in
        check Alcotest.bool "const not active" false
          (Const_prop.pin_active cp (Design.pin_of_name_exn d "r1/Q"));
        check Alcotest.bool "implied const not active" false
          (Const_prop.pin_active cp (Design.pin_of_name_exn d "r2/D"));
        check Alcotest.bool "free pin active" true
          (Const_prop.pin_active cp (Design.pin_of_name_exn d "mx/Z")));
  ]

(* ------------------------------------------------------------------ *)
(* Clock_prop                                                          *)

let clocks_src =
  "create_clock -name ca -period 10 [get_ports clk]\n\
   create_clock -name cb -period 5 [get_ports clkb]\n"

let clock_cases =
  [
    tc "clock reaches flops through mux when select unknown" (fun () ->
        let d = pipeline () in
        let mode = resolve d clocks_src in
        let g = Tgraph.skeleton d in
        let cp = Const_prop.run g mode in
        let ck = Clock_prop.run g cp mode in
        let at pin = Clock_prop.clocks_at ck (Design.pin_of_name_exn d pin) in
        check Alcotest.(list string) "r1 direct" [ "ca" ] (at "r1/CP");
        check Alcotest.(list string) "r2 both" [ "ca"; "cb" ] (at "r2/CP"));
    tc "case analysis prunes one clock" (fun () ->
        let d = pipeline () in
        let mode = resolve d (clocks_src ^ "set_case_analysis 1 sel") in
        let g = Tgraph.skeleton d in
        let cp = Const_prop.run g mode in
        let ck = Clock_prop.run g cp mode in
        check
          Alcotest.(list string)
          "only cb" [ "cb" ]
          (Clock_prop.clocks_at ck (Design.pin_of_name_exn d "r2/CP")));
    tc "stop_propagation blocks a clock" (fun () ->
        let d = pipeline () in
        let mode =
          resolve d
            (clocks_src
           ^ "set_clock_sense -stop_propagation -clock [get_clocks ca] [get_pins mx/Z]")
        in
        let g = Tgraph.skeleton d in
        let cp = Const_prop.run g mode in
        let ck = Clock_prop.run g cp mode in
        check
          Alcotest.(list string)
          "ca stopped" [ "cb" ]
          (Clock_prop.clocks_at ck (Design.pin_of_name_exn d "r2/CP")));
    tc "insertion delay accumulates" (fun () ->
        let d = pipeline () in
        let mode = resolve d (clocks_src ^ "set_propagated_clock [get_clocks ca]") in
        let g = Tgraph.skeleton d in
        let cp = Const_prop.run g mode in
        let ck = Clock_prop.run g cp mode in
        let ca = Option.get (Clock_prop.clock_index ck "ca") in
        let dl = Tgraph.delays g mode in
        (* clk -> mx/D0 (net), mx/D0 -> mx/Z (mux), mx/Z -> r2/CP (net),
           folded from 0 in path order as the sweep does. *)
        let arc src dst =
          let s = Design.pin_of_name_exn d src and t = Design.pin_of_name_exn d dst in
          let found = ref (-1) in
          for aid = 0 to Tgraph.n_arcs g - 1 do
            if Tgraph.arc_src g aid = s && Tgraph.arc_dst g aid = t then found := aid
          done;
          !found
        in
        let path = [ arc "clk" "mx/D0"; arc "mx/D0" "mx/Z"; arc "mx/Z" "r2/CP" ] in
        let sum delay = List.fold_left (fun acc aid -> acc +. delay aid) 0. path in
        let exact = Alcotest.(option (pair (float 0.) (float 0.))) in
        let got =
          Sta.clock_arrival
            (Sta.view (Context.create d mode))
            (Design.pin_of_name_exn d "r2/CP") ca
        in
        check exact "summed arcs"
          (Some (sum (Array.get dl.Tgraph.dmin), sum (Array.get dl.Tgraph.dmax)))
          got;
        check exact "pinned" (Some (0.05553580735803744, 0.069419759197546796)) got);
    tc "mask helpers" (fun () ->
        let d = pipeline () in
        let mode = resolve d clocks_src in
        let g = Tgraph.skeleton d in
        let cp = Const_prop.run g mode in
        let ck = Clock_prop.run g cp mode in
        check Alcotest.int "n_clocks" 2 (Clock_prop.n_clocks ck);
        check Alcotest.int "mask both" 3
          (Clock_prop.mask_of_clock_names ck [ "ca"; "cb"; "nope" ]));
  ]

(* ------------------------------------------------------------------ *)
(* Constraint_state                                                    *)

let cs = Alcotest.testable (fun fmt s -> Format.pp_print_string fmt (Cs.to_string s)) Cs.equal

let state_cases =
  [
    tc "precedence: disabled > fp > max > min > mcp > valid" (fun () ->
        check cs "fp over mcp" Cs.False_path
          (Cs.strongest [ Cs.Multicycle 2; Cs.False_path ]);
        check cs "dis over fp" Cs.Disabled (Cs.strongest [ Cs.False_path; Cs.Disabled ]);
        check cs "max over mcp" (Cs.Max_delay_bound 1.)
          (Cs.strongest [ Cs.Multicycle 2; Cs.Max_delay_bound 1. ]);
        check cs "mcp over valid" (Cs.Multicycle 3)
          (Cs.strongest [ Cs.Valid; Cs.Multicycle 3 ]);
        check cs "empty is valid" Cs.Valid (Cs.strongest []));
    tc "same kind tightening" (fun () ->
        check cs "mcp max mult" (Cs.Multicycle 4)
          (Cs.strongest [ Cs.Multicycle 2; Cs.Multicycle 4 ]);
        check cs "max min value" (Cs.Max_delay_bound 1.)
          (Cs.strongest [ Cs.Max_delay_bound 2.; Cs.Max_delay_bound 1. ]);
        check cs "min max value" (Cs.Min_delay_bound 2.)
          (Cs.strongest [ Cs.Min_delay_bound 1.; Cs.Min_delay_bound 2. ]));
    tc "of_exceptions filters analysis side" (fun () ->
        let fp_hold_only = Mode.exc ~setup:false ~hold:true Mode.False_path in
        check cs "setup side valid" Cs.Valid
          (Cs.of_exceptions ~setup:true [ fp_hold_only ]);
        check cs "hold side fp" Cs.False_path
          (Cs.of_exceptions ~setup:false [ fp_hold_only ]));
    tc "to_string forms" (fun () ->
        check Alcotest.string "v" "V" (Cs.to_string Cs.Valid);
        check Alcotest.string "mcp" "MCP(2)" (Cs.to_string (Cs.Multicycle 2));
        check Alcotest.string "max" "MAX(1.5)" (Cs.to_string (Cs.Max_delay_bound 1.5)));
  ]

(* ------------------------------------------------------------------ *)
(* Excmatch (driven through contexts on the paper circuit)             *)

let figure1 = Mm_workload.Paper_circuit.build

let exc_ctx src =
  let d = figure1 () in
  let mode = resolve d src in
  d, Context.create d mode

let exc_cases =
  [
    tc "through groups must match in order" (fun () ->
        (* -through inv1/Z -through and1/Z matches path ii but a tag
           visiting only and1/Z must not match. *)
        let d, ctx =
          exc_ctx
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_false_path -through inv1/Z -through and1/Z"
        in
        let ex = ctx.Context.excs in
        let st0 = Excmatch.initial_state ex ~start_pins:[] ~launch_clock:(Some 0) () in
        let at_and1 =
          Excmatch.advance ex st0 (Design.pin_of_name_exn d "and1/Z")
        in
        check Alcotest.int "no match skipping first" 0
          (List.length
             (Excmatch.matches_at ex at_and1 ~end_pins:[] ~capture_clock:(Some 0) ()));
        let both =
          Excmatch.advance ex
            (Excmatch.advance ex st0 (Design.pin_of_name_exn d "inv1/Z"))
            (Design.pin_of_name_exn d "and1/Z")
        in
        check Alcotest.int "matches in order" 1
          (List.length
             (Excmatch.matches_at ex both ~end_pins:[] ~capture_clock:(Some 0) ())));
    tc "from pin restriction kills other startpoints" (fun () ->
        let d, ctx =
          exc_ctx
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_false_path -from rA/CP"
        in
        let ex = ctx.Context.excs in
        let from_ra =
          Excmatch.initial_state ex
            ~start_pins:[ Design.pin_of_name_exn d "rA/CP" ]
            ~launch_clock:(Some 0) ()
        in
        let from_rb =
          Excmatch.initial_state ex
            ~start_pins:[ Design.pin_of_name_exn d "rB/CP" ]
            ~launch_clock:(Some 0) ()
        in
        check Alcotest.int "rA matches" 1
          (List.length
             (Excmatch.matches_at ex from_ra ~end_pins:[] ~capture_clock:None ()));
        check Alcotest.int "rB dead" 0
          (List.length
             (Excmatch.matches_at ex from_rb ~end_pins:[] ~capture_clock:None ())));
    tc "to clock restriction" (fun () ->
        let _d, ctx =
          exc_ctx
            "create_clock -name c -period 10 [get_ports clk1]\n\
             create_clock -name c2 -period 5 -add [get_ports clk2]\n\
             set_false_path -to [get_clocks c2]"
        in
        let ex = ctx.Context.excs in
        let c2 = Option.get (Clock_prop.clock_index ctx.Context.clocks "c2") in
        let c = Option.get (Clock_prop.clock_index ctx.Context.clocks "c") in
        let st = Excmatch.initial_state ex ~start_pins:[] ~launch_clock:(Some c) () in
        check Alcotest.int "captures by c2" 1
          (List.length
             (Excmatch.matches_at ex st ~end_pins:[] ~capture_clock:(Some c2) ()));
        check Alcotest.int "not by c" 0
          (List.length
             (Excmatch.matches_at ex st ~end_pins:[] ~capture_clock:(Some c) ())));
    tc "state interning is stable" (fun () ->
        let d, ctx =
          exc_ctx
            "create_clock -name c -period 10 [get_ports clk1]\n\
             set_false_path -through inv1/Z"
        in
        let ex = ctx.Context.excs in
        let st0 = Excmatch.initial_state ex ~start_pins:[] ~launch_clock:None () in
        let p = Design.pin_of_name_exn d "inv1/Z" in
        let s1 = Excmatch.advance ex st0 p in
        let s2 = Excmatch.advance ex st0 p in
        check Alcotest.int "same id" s1 s2;
        check Alcotest.int "idempotent" s1 (Excmatch.advance ex s1 p));
  ]

(* ------------------------------------------------------------------ *)
(* Sta                                                                 *)

(* Multicycle setup and hold on r1 -> r2; on the port endpoint an output
   delay, a max delay on rising data and a min delay on falling data, so
   the two polarities take different branches; a propagated clock with
   hold uncertainty. *)
let constrained_pipeline =
  base_clock
  ^ "set_propagated_clock [get_clocks c]\n\
     set_clock_uncertainty -hold 0.05 [get_clocks c]\n\
     set_output_delay 2 -clock c [get_ports out]\n\
     set_multicycle_path 3 -setup -to [get_pins r2/D]\n\
     set_multicycle_path 2 -hold -to [get_pins r2/D]\n\
     set_max_delay 6 -rise_to [get_ports out]\n\
     set_min_delay 0.5 -fall_to [get_ports out]"

let slack_of d mode pin_name =
  let report = Sta.analyze d mode in
  let pin = Design.pin_of_name_exn d pin_name in
  List.find_map
    (fun es -> if es.Sta.es_pin = pin then es.Sta.es_setup else None)
    report.Sta.rep_slacks

let hold_of d mode pin_name =
  let report = Sta.analyze d mode in
  let pin = Design.pin_of_name_exn d pin_name in
  List.find_map
    (fun es -> if es.Sta.es_pin = pin then es.Sta.es_hold else None)
    report.Sta.rep_slacks

let sta_cases =
  [
    tc "propagated and ideal clock slacks are pinned" (fun () ->
        (* The capture register r2 sits behind the clock mux, so a
           propagated clock gives it a later clock than r1; the ideal
           clock adds its set_clock_latency to both. *)
        let d = pipeline () in
        let load = "set_load 0.05 [get_pins r2/CP]\n" in
        let propagated =
          resolve d (base_clock ^ load ^ "set_propagated_clock [get_clocks c]")
        and ideal =
          resolve d (base_clock ^ load ^ "set_clock_latency 0.3 [get_clocks c]")
        in
        let exact = Alcotest.(option (float 0.)) in
        check exact "propagated setup" (Some 9.8516660481604905) (slack_of d propagated "r2/D");
        check exact "propagated hold" (Some (-0.008323951839509347)) (hold_of d propagated "r2/D");
        check exact "ideal setup" (Some 9.7611000000000008) (slack_of d ideal "r2/D");
        check exact "ideal hold" (Some 0.10712000000000005) (hold_of d ideal "r2/D"));
    tc "reg-to-reg setup slack is sane" (fun () ->
        let d = pipeline () in
        let mode = resolve d base_clock in
        match slack_of d mode "r2/D" with
        | Some s -> check Alcotest.bool "within period" true (s > 0. && s < 10.)
        | None -> Alcotest.fail "no setup check");
    tc "multicycle adds one period of slack" (fun () ->
        let d = pipeline () in
        let m1 = resolve d base_clock in
        let m2 =
          resolve d (base_clock ^ "set_multicycle_path 2 -to [get_pins r2/D]")
        in
        match slack_of d m1 "r2/D", slack_of d m2 "r2/D" with
        | Some s1, Some s2 -> check (Alcotest.float 1e-6) "one period" 10. (s2 -. s1)
        | _ -> Alcotest.fail "missing checks");
    tc "false path removes the check" (fun () ->
        let d = pipeline () in
        let mode = resolve d (base_clock ^ "set_false_path -to [get_pins r2/D]") in
        check Alcotest.bool "no setup" true (slack_of d mode "r2/D" = None);
        check Alcotest.bool "no hold" true (hold_of d mode "r2/D" = None));
    tc "max_delay overrides the period requirement" (fun () ->
        let d = pipeline () in
        let m v =
          resolve d (base_clock ^ Printf.sprintf "set_max_delay %g -to [get_pins r2/D]" v)
        in
        match slack_of d (m 5.) "r2/D", slack_of d (m 6.) "r2/D" with
        | Some s5, Some s6 -> check (Alcotest.float 1e-6) "shifted by 1" 1. (s6 -. s5)
        | _ -> Alcotest.fail "missing checks");
    tc "uncertainty subtracts from slack" (fun () ->
        let d = pipeline () in
        let m1 = resolve d base_clock in
        let m2 =
          resolve d (base_clock ^ "set_clock_uncertainty -setup 0.5 [get_clocks c]")
        in
        match slack_of d m1 "r2/D", slack_of d m2 "r2/D" with
        | Some s1, Some s2 -> check (Alcotest.float 1e-6) "0.5 tighter" 0.5 (s1 -. s2)
        | _ -> Alcotest.fail "missing checks");
    tc "hold slack exists and is finite" (fun () ->
        let d = pipeline () in
        let mode = resolve d base_clock in
        match hold_of d mode "r2/D" with
        | Some h -> check Alcotest.bool "finite" true (Float.is_finite h)
        | None -> Alcotest.fail "no hold check");
    tc "physically exclusive clocks are not timed against each other" (fun () ->
        let d = pipeline () in
        let src =
          "create_clock -name ca -period 10 [get_ports clk]\n\
           create_clock -name cb -period 7 [get_ports clkb]\n"
        in
        let no_grp = resolve d src in
        let grp =
          resolve d
            (src
           ^ "set_clock_groups -physically_exclusive -group [get_clocks ca] -group [get_clocks cb]")
        in
        (* Without the group, the ca->cb cross path at r2 uses the
           tighter cb capture; with it, only ca->ca remains. *)
        match slack_of d no_grp "r2/D", slack_of d grp "r2/D" with
        | Some s_cross, Some s_same ->
          check Alcotest.bool "group relaxes" true (s_same >= s_cross)
        | _ -> Alcotest.fail "missing checks");
    tc "input delay creates a timed path from the port" (fun () ->
        let d = pipeline () in
        (* in-port path: wire a din port to r1/D first. *)
        let d2 = Design.create "pipe2" in
        ignore (Design.add_port d2 "clk" Design.In);
        ignore (Design.add_port d2 "din" Design.In);
        ignore (Design.add_inst d2 "r1" Library.dff);
        Design.wire d2 "n_clk" [ "clk"; "r1/CP" ];
        Design.wire d2 "n_din" [ "din"; "r1/D" ];
        ignore d;
        let mode =
          resolve d2
            "create_clock -name c -period 10 [get_ports clk]\n\
             set_input_delay 3 -clock c [get_ports din]"
        in
        match slack_of d2 mode "r1/D" with
        | Some s -> check Alcotest.bool "reduced by input delay" true (s < 8.)
        | None -> Alcotest.fail "no check");
    tc "output delay creates a port endpoint check" (fun () ->
        let d = pipeline () in
        let mode =
          resolve d (base_clock ^ "set_output_delay 2 -clock c [get_ports out]")
        in
        match slack_of d mode "out" with
        | Some s -> check Alcotest.bool "finite" true (Float.is_finite s)
        | None -> Alcotest.fail "no check");
    tc "conformity helpers" (fun () ->
        let d = pipeline () in
        let mode = resolve d base_clock in
        let r = Sta.analyze d mode in
        check (Alcotest.float 1e-9) "identical reports conform" 100.
          (Sta.conformity ~individual:[ r ] ~merged:[ r ] ~tolerance_frac:0.01);
        check (Alcotest.float 1e-9) "missing merged endpoint fails" 0.
          (Sta.conformity ~individual:[ r ]
             ~merged:[ { r with Sta.rep_slacks = [] } ]
             ~tolerance_frac:0.01));
    tc "merge_worst takes the minimum" (fun () ->
        let d = pipeline () in
        let m1 = resolve d base_clock in
        let m2 =
          resolve d ("create_clock -name c -period 6 [get_ports clk]\n")
        in
        let r1 = Sta.analyze d m1 and r2 = Sta.analyze d m2 in
        let tbl = Sta.merge_worst [ r1; r2 ] in
        let pin = Design.pin_of_name_exn d "r2/D" in
        let worst, _ = Hashtbl.find tbl pin in
        let s1 = Option.get (slack_of d m1 "r2/D")
        and s2 = Option.get (slack_of d m2 "r2/D") in
        check (Alcotest.float 1e-9) "min" (Float.min s1 s2) worst);
    tc "every check of a constrained pipeline is pinned" (fun () ->
        (* Every endpoint's setup, hold and capture period, exact, and
           the check count at each standard corner. On r2/D `-setup 3
           -hold 2` puts the hold edge back at the launch edge, so its
           hold slack sits near zero. *)
        let d = pipeline () in
        let mode = resolve d constrained_pipeline in
        let v = Sta.view (Context.create d mode) in
        let opt = function None -> "-" | Some x -> Printf.sprintf "%h" x in
        let got =
          List.concat_map
            (fun corner ->
              let r = Sta.analyze_view ~corner v in
              Printf.sprintf "%s checked=%d" corner.Mm_timing.Corner.corner_name
                r.Sta.rep_n_checked
              :: List.map
                   (fun es ->
                     Printf.sprintf "%s setup=%s hold=%s period=%s"
                       (Design.pin_name d es.Sta.es_pin)
                       (opt es.Sta.es_setup) (opt es.Sta.es_hold)
                       (opt es.Sta.es_capture_period))
                   r.Sta.rep_slacks)
            Mm_timing.Corner.standard_set
        in
        check Alcotest.(list string) "checks"
          [
            "typical checked=4";
            "r1/D setup=- hold=- period=-";
            "r2/D setup=0x1.dcfc9589c1f75p+4 hold=-0x1.10c25e764b42p-7 period=0x1.4p+3";
            "out setup=0x1.73aa7abe3d06dp+2 hold=-0x1.621fbcb640575p-2 period=0x1.4p+3";
            "slow checked=4";
            "r1/D setup=- hold=- period=-";
            "r2/D setup=0x1.dc07f35625e88p+4 hold=0x1.1f933b57b35ap-8 period=0x1.4p+3";
            "out setup=0x1.71b17152837a5p+2 hold=-0x1.5805f2e09ecfap-2 period=0x1.4p+3";
            "fast checked=4";
            "r1/D setup=- hold=- period=-";
            "r2/D setup=0x1.dd5e3658d9f7fp+4 hold=-0x1.ce8519d5e6d5p-5 period=0x1.4p+3";
            "out setup=0x1.74d9806545f4bp+2 hold=-0x1.806d1a3724ee4p-2 period=0x1.4p+3";
          ]
          got);
  ]

(* ------------------------------------------------------------------ *)
(* Rise/fall edge handling                                             *)

let unate_of d g src dst =
  let s = Design.pin_of_name_exn d src and t = Design.pin_of_name_exn d dst in
  let r = ref None in
  for aid = 0 to Tgraph.n_arcs g - 1 do
    if Tgraph.arc_src g aid = s && Tgraph.arc_dst g aid = t then
      r := Some (Tgraph.arc_unate g aid)
  done;
  !r

let edge_cases =
  [
    tc "unateness of library gates" (fun () ->
        let d = Mm_workload.Paper_circuit.build () in
        let g =
          Tgraph.skeleton d
        in
        check Alcotest.bool "inverter negative" true
          (unate_of d g "inv1/A" "inv1/Z" = Some Tgraph.Negative);
        check Alcotest.bool "and positive" true
          (unate_of d g "and1/A" "and1/Z" = Some Tgraph.Positive);
        check Alcotest.bool "xor non-unate" true
          (unate_of d g "xorS/A" "xorS/Z" = Some Tgraph.Non_unate);
        check Alcotest.bool "mux data positive" true
          (unate_of d g "mux1/D0" "mux1/Z" = Some Tgraph.Positive);
        check Alcotest.bool "mux select non-unate" true
          (unate_of d g "mux1/S" "mux1/Z" = Some Tgraph.Non_unate);
        check Alcotest.bool "launch non-unate" true
          (unate_of d g "rA/CP" "rA/Q" = Some Tgraph.Non_unate));
    tc "single-edge false path keeps the other edge timed" (fun () ->
        let d = pipeline () in
        let both =
          resolve d
            (base_clock
           ^ "set_false_path -rise_to [get_pins r2/D]
              set_false_path -fall_to [get_pins r2/D]")
        in
        let rise_only =
          resolve d (base_clock ^ "set_false_path -rise_to [get_pins r2/D]")
        in
        check Alcotest.bool "both edges kill the check" true
          (slack_of d both "r2/D" = None);
        check Alcotest.bool "one edge keeps it" true
          (slack_of d rise_only "r2/D" <> None));
    tc "edge flips through an inverter" (fun () ->
        (* r1 -> u1(INV) -> r2: a fall restriction at r2/D corresponds
           to a rise at r1/Q; a -rise_from [pin r1/Q] FP plus inverter
           yields a fall arrival, so only -fall_to sees it as false. *)
        let d = pipeline () in
        let m =
          resolve d
            (base_clock ^ "set_false_path -rise_from [get_pins r1/Q] -fall_to [get_pins r2/D]")
        in
        (* The rise-at-Q/fall-at-D combination is exactly the inverted
           path: only one of the four edge pairs is false, so the
           check must survive (other polarities still timed). *)
        check Alcotest.bool "check survives" true (slack_of d m "r2/D" <> None));
    tc "rise_from clock matches rising-edge registers only" (fun () ->
        let d = pipeline () in
        let rise = resolve d (base_clock ^ "set_false_path -rise_from [get_clocks c]") in
        let fall = resolve d (base_clock ^ "set_false_path -fall_from [get_clocks c]") in
        (* DFFs launch on the rising edge: the rise_from FP kills all
           checks, the fall_from one kills none. *)
        check Alcotest.bool "rise kills" true (slack_of d rise "r2/D" = None);
        check Alcotest.bool "fall keeps" true (slack_of d fall "r2/D" <> None));
  ]

(* ------------------------------------------------------------------ *)
(* Corners and design rules                                            *)

let corner_cases =
  [
    tc "slow corner tightens setup slack" (fun () ->
        let d = pipeline () in
        let mode = resolve d base_clock in
        let v = Sta.view (Context.create d mode) in
        let typ = Sta.analyze_view v in
        let slow = Sta.analyze_view ~corner:Mm_timing.Corner.slow v in
        let s r =
          Option.get
            (List.find_map
               (fun es ->
                 if es.Sta.es_pin = Design.pin_of_name_exn d "r2/D" then
                   es.Sta.es_setup
                 else None)
               r.Sta.rep_slacks)
        in
        check Alcotest.bool "slower is tighter" true (s slow < s typ));
    tc "fast corner tightens hold slack" (fun () ->
        let d = pipeline () in
        let mode = resolve d base_clock in
        let v = Sta.view (Context.create d mode) in
        let typ = Sta.analyze_view v in
        let fast = Sta.analyze_view ~corner:Mm_timing.Corner.fast v in
        let h r =
          Option.get
            (List.find_map
               (fun es ->
                 if es.Sta.es_pin = Design.pin_of_name_exn d "r2/D" then
                   es.Sta.es_hold
                 else None)
               r.Sta.rep_slacks)
        in
        check Alcotest.bool "faster is tighter for hold" true (h fast < h typ));
    tc "scenario sweep covers modes x corners" (fun () ->
        let d = pipeline () in
        let m1 = resolve d base_clock in
        let m2 = resolve d "create_clock -name c -period 6 [get_ports clk]\n" in
        let scenarios =
          Sta.analyze_scenarios d ~modes:[ m1; m2 ]
            ~corners:Mm_timing.Corner.standard_set
        in
        check Alcotest.int "six scenarios" 6 (List.length scenarios));
  ]

let drc_cases =
  [
    tc "max_capacitance violation detected" (fun () ->
        let d = pipeline () in
        (* r1/Q drives u1/A; a tiny limit must trip. *)
        let mode =
          resolve d (base_clock ^ "set_max_capacitance 0.0001 [get_pins r1/Q]")
        in
        let r = Sta.analyze d mode in
        check Alcotest.int "one violation" 1 (List.length r.Sta.rep_drc);
        let v = List.hd r.Sta.rep_drc in
        check Alcotest.bool "identifies pin" true
          (v.Sta.drv_pin = Design.pin_of_name_exn d "r1/Q");
        check Alcotest.bool "actual above limit" true
          (v.Sta.drv_actual > v.Sta.drv_limit));
    tc "generous limit passes" (fun () ->
        let d = pipeline () in
        let mode =
          resolve d (base_clock ^ "set_max_capacitance 100 [get_pins r1/Q]")
        in
        check Alcotest.int "clean" 0 (List.length (Sta.analyze d mode).Sta.rep_drc));
    tc "max_transition uses the RC estimate" (fun () ->
        let d = pipeline () in
        let mode =
          resolve d (base_clock ^ "set_max_transition 0.000001 [get_pins u1/Z]")
        in
        check Alcotest.int "trips" 1 (List.length (Sta.analyze d mode).Sta.rep_drc));
  ]

(* ------------------------------------------------------------------ *)
(* Multi-frequency checks                                              *)

let multifreq_cases =
  [
    tc "harmonic capture uses the tighter half-period window" (fun () ->
        (* Launch on P=10, capture on P=5 via the mux leg: the worst
           setup window is 5 ns, so the slack is ~5 ns below the
           same-clock case. *)
        let d = pipeline () in
        let same =
          resolve d
            "create_clock -name ca -period 10 [get_ports clk]\n\
             set_case_analysis 0 sel"
        in
        let harmonic =
          resolve d
            "create_clock -name ca -period 10 [get_ports clk]\n\
             create_clock -name cb -period 5 [get_ports clkb]\n\
             set_case_analysis 1 sel"
        in
        match slack_of d same "r2/D", slack_of d harmonic "r2/D" with
        | Some s_same, Some s_har ->
          check (Alcotest.float 1e-6) "five less" 5. (s_same -. s_har)
        | _ -> Alcotest.fail "missing checks");
    tc "non-harmonic pair finds the minimum edge separation" (fun () ->
        (* P=10 launch, P=7 capture: min positive separation over the
           hyperperiod is 1 (edges at 70k vs 10j). *)
        let d = pipeline () in
        let m =
          resolve d
            "create_clock -name ca -period 10 [get_ports clk]\n\
             create_clock -name cb -period 7 [get_ports clkb]\n\
             set_case_analysis 1 sel"
        in
        let harm =
          resolve d
            "create_clock -name ca -period 10 [get_ports clk]\n\
             create_clock -name cb -period 5 [get_ports clkb]\n\
             set_case_analysis 1 sel"
        in
        match slack_of d m "r2/D", slack_of d harm "r2/D" with
        | Some s7, Some s5 ->
          (* sep(10,7)=1 vs sep(10,5)=5: the 7ns capture is 4ns tighter *)
          check (Alcotest.float 1e-6) "four less" 4. (s5 -. s7)
        | _ -> Alcotest.fail "missing checks");
    tc "shifted waveform moves the capture edge" (fun () ->
        let d = pipeline () in
        let base = resolve d base_clock in
        let shifted =
          resolve d
            "create_clock -name c -period 10 -waveform {2 7} [get_ports clk]\n"
        in
        (* Launch and capture both shift by 2: same-clock slack is
           unchanged. *)
        match slack_of d base "r2/D", slack_of d shifted "r2/D" with
        | Some a, Some b -> check (Alcotest.float 1e-6) "unchanged" a b
        | _ -> Alcotest.fail "missing checks");
  ]

(* ------------------------------------------------------------------ *)
(* Path reporting                                                      *)

let path_cases =
  [
    tc "worst path traces the pipeline" (fun () ->
        let d = pipeline () in
        let mode = resolve d base_clock in
        match Sta.worst_paths ~n:1 d mode with
        | [ p ] ->
          let names = List.map (fun s -> Design.pin_name d s.Sta.st_pin) p.Sta.pth_steps in
          check Alcotest.bool "starts at launch" true
            (List.hd names = "r1/CP" || List.hd names = "r1/Q");
          check Alcotest.bool "passes the inverter" true (List.mem "u1/Z" names);
          check Alcotest.string "ends at r2/D" "r2/D" (List.nth names (List.length names - 1));
          (* arrival arithmetic is consistent *)
          List.iter
            (fun s ->
              check Alcotest.bool "incr nonneg" true (s.Sta.st_incr >= 0.))
            p.Sta.pth_steps;
          let last = List.nth p.Sta.pth_steps (List.length p.Sta.pth_steps - 1) in
          check (Alcotest.float 1e-9) "arrival matches" p.Sta.pth_arrival last.Sta.st_arrival
        | _ -> Alcotest.fail "expected one path");
    tc "path slack agrees with endpoint slack" (fun () ->
        (* At every endpoint, the worst of all its reported paths is the
           endpoint's setup slack; an endpoint without a setup check has
           no path. Also under the constrained pipeline's exceptions. *)
        let d = pipeline () in
        List.iter
          (fun src ->
            let mode = resolve d src in
            let rep = Sta.analyze d mode in
            let paths = Sta.worst_paths ~n:max_int d mode in
            List.iter
              (fun es ->
                let worst =
                  List.fold_left
                    (fun acc p ->
                      if p.Sta.pth_endpoint <> es.Sta.es_pin then acc
                      else
                        match acc with
                        | Some w when w <= p.Sta.pth_slack -> acc
                        | _ -> Some p.Sta.pth_slack)
                    None paths
                in
                check
                  Alcotest.(option (float 0.))
                  (Design.pin_name d es.Sta.es_pin)
                  es.Sta.es_setup worst)
              rep.Sta.rep_slacks;
            check Alcotest.bool "some endpoint has a path" true (paths <> []))
          [ base_clock; constrained_pipeline ]);
    tc "n limits the number of paths" (fun () ->
        let d = pipeline () in
        (* The output delay adds a second checked endpoint. *)
        let mode =
          resolve d (base_clock ^ "set_output_delay 2 -clock c [get_ports out]")
        in
        check Alcotest.int "one" 1 (List.length (Sta.worst_paths ~n:1 d mode));
        check Alcotest.bool "sorted worst-first" true
          (match Sta.worst_paths ~n:2 d mode with
          | [ a; b ] -> a.Sta.pth_slack <= b.Sta.pth_slack
          | _ -> false));
    tc "rendering mentions MET/VIOLATED" (fun () ->
        let d = pipeline () in
        let mode = resolve d base_clock in
        match Sta.worst_paths ~n:1 d mode with
        | [ p ] ->
          let text = Sta.path_to_string d p in
          check Alcotest.bool "has verdict" true
            (Str_probe.contains text "MET" || Str_probe.contains text "VIOLATED");
          check Alcotest.bool "has startpoint" true (Str_probe.contains text "Startpoint")
        | _ -> Alcotest.fail "expected one path");
    tc "slow corner path arrival grows" (fun () ->
        let d = pipeline () in
        let mode = resolve d base_clock in
        let typ = List.hd (Sta.worst_paths ~n:1 d mode) in
        let slow = List.hd (Sta.worst_paths ~corner:Mm_timing.Corner.slow ~n:1 d mode) in
        check Alcotest.bool "later arrival" true
          (slow.Sta.pth_arrival > typ.Sta.pth_arrival));
  ]

(* ------------------------------------------------------------------ *)
(* Dot export                                                          *)

(* A small generated design with a clock on every clock port, the
   merged context over it, and the edge lines of its DOT export. *)
let dot_fixture () =
  let d, info =
    Mm_workload.Gen_design.generate
      {
        Mm_workload.Gen_design.default_params with
        seed = 7;
        n_domains = 2;
        regs_per_domain = 4;
        stages = 2;
        combo_depth = 1;
      }
  in
  let clocks =
    String.concat ""
      (List.mapi
         (fun i port ->
           Printf.sprintf "create_clock -name c%d -period 10 [get_ports %s]\n"
             i port)
         info.Mm_workload.Gen_design.clock_ports)
  in
  d, Context.create d (resolve d clocks)

let dot_edges dot =
  List.filter
    (fun l -> Str_probe.contains l " -> ")
    (String.split_on_char '\n' dot)

let count_with sub lines =
  List.length (List.filter (fun l -> Str_probe.contains l sub) lines)

let dot_cases =
  [
    tc "edge styles follow arc kinds, clock edges blue" (fun () ->
        let _, ctx = dot_fixture () in
        let g = ctx.Context.graph in
        let edges = dot_edges (Mm_timing.Dot.export ctx) in
        let kinds kind =
          let n = ref 0 in
          for aid = 0 to Tgraph.n_arcs g - 1 do
            if Tgraph.arc_kind g aid = kind then incr n
          done;
          !n
        in
        check Alcotest.int "one edge per arc" (Tgraph.n_arcs g)
          (List.length edges);
        check Alcotest.int "solid = comb" (kinds Tgraph.Comb)
          (count_with "style=solid" edges);
        check Alcotest.int "dashed = net" (kinds Tgraph.Net)
          (count_with "style=dashed" edges);
        check Alcotest.int "dotted = launch" (kinds Tgraph.Launch)
          (count_with "style=dotted" edges);
        let blue =
          List.filter (fun l -> Str_probe.contains l "color=blue") edges
        in
        check Alcotest.bool "clock edges exist" true (blue <> []);
        check Alcotest.int "clock edges carry no label" 0
          (count_with "label=" blue));
    tc "clock_network_only drops data edges" (fun () ->
        let _, ctx = dot_fixture () in
        let edges =
          dot_edges (Mm_timing.Dot.export ~clock_network_only:true ctx)
        in
        check Alcotest.bool "edges remain" true (edges <> []);
        check Alcotest.int "no gray60 edge" 0 (count_with "gray60" edges));
    tc "clockless side marks clock edges merged-only" (fun () ->
        let d, ctx = dot_fixture () in
        let side =
          {
            Mm_timing.Dot.side_name = "noclk";
            side_ctx = Context.create d (resolve d "");
            side_rename = Fun.id;
          }
        in
        let edges =
          dot_edges (Mm_timing.Dot.export ~individual:[ side ] ctx)
        in
        let clock_edges =
          List.filter (fun l -> not (Str_probe.contains l "gray60")) edges
        in
        check Alcotest.bool "clock edges exist" true (clock_edges <> []);
        check Alcotest.int "every clock edge is red, merged-only"
          (List.length clock_edges)
          (count_with "color=red, label=\"merged-only\"" clock_edges));
  ]

let () =
  Alcotest.run "mm_timing"
    [
      "graph", graph_cases;
      "dot", dot_cases;
      "edges", edge_cases;
      "corners", corner_cases;
      "drc", drc_cases;
      "paths", path_cases;
      "multifreq", multifreq_cases;
      "const_prop", const_cases;
      "clock_prop", clock_cases;
      "constraint_state", state_cases;
      "excmatch", exc_cases;
      "sta", sta_cases;
    ]
