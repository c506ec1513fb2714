(* Tests for Mm_workload: generator determinism, structural soundness
   of generated designs, mode-suite properties and preset consistency. *)
module Design = Mm_netlist.Design
module Stats = Mm_netlist.Stats
module Mode = Mm_sdc.Mode
module Gen_design = Mm_workload.Gen_design
module Gen_modes = Mm_workload.Gen_modes
module Presets = Mm_workload.Presets
module Pc = Mm_workload.Paper_circuit

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let small_params =
  {
    Gen_design.default_params with
    Gen_design.seed = 5;
    regs_per_domain = 24;
    stages = 3;
    combo_depth = 2;
  }

let gen_cases =
  [
    tc "deterministic for equal seeds" (fun () ->
        let d1, _ = Gen_design.generate small_params in
        let d2, _ = Gen_design.generate small_params in
        check Alcotest.string "same netlist"
          (Mm_netlist.Netlist_io.to_string d1)
          (Mm_netlist.Netlist_io.to_string d2));
    tc "different seeds differ" (fun () ->
        let d1, _ = Gen_design.generate small_params in
        let d2, _ = Gen_design.generate { small_params with Gen_design.seed = 6 } in
        check Alcotest.bool "differ" true
          (Mm_netlist.Netlist_io.to_string d1 <> Mm_netlist.Netlist_io.to_string d2));
    tc "register count matches parameters" (fun () ->
        let d, info = Gen_design.generate small_params in
        let per_stage = 24 / 3 in
        check Alcotest.int "regs" (2 * 3 * per_stage)
          (List.length (Design.registers d));
        check Alcotest.int "domains" 2 (List.length info.Gen_design.domains));
    tc "no combinational loops" (fun () ->
        let d, _ = Gen_design.generate small_params in
        let g = Mm_timing.Tgraph.skeleton d in
        check Alcotest.(list int) "no broken arcs" []
          g.Mm_timing.Tgraph.broken);
    tc "scan chain is fully connected" (fun () ->
        let d, info = Gen_design.generate small_params in
        (* Every flop's SI and SE must be connected. *)
        List.iter
          (fun dm ->
            List.iter
              (fun r ->
                check Alcotest.bool "SI wired" true
                  (Design.pin_net d (Design.pin_of_name_exn d (r ^ "/SI")) <> None);
                check Alcotest.bool "SE wired" true
                  (Design.pin_net d (Design.pin_of_name_exn d (r ^ "/SE")) <> None))
              dm.Gen_design.dom_regs)
          info.Gen_design.domains);
    tc "clock mux present for muxed domains" (fun () ->
        let d, info = Gen_design.generate small_params in
        let muxed =
          List.filter (fun dm -> dm.Gen_design.dom_mux <> None) info.Gen_design.domains
        in
        check Alcotest.int "one mux" 1 (List.length muxed);
        List.iter
          (fun dm ->
            match dm.Gen_design.dom_mux with
            | Some m -> check Alcotest.bool "exists" true (Design.find_inst d m <> None)
            | None -> ())
          muxed);
    tc "approx_cells within 2x of actual" (fun () ->
        let d, _ = Gen_design.generate small_params in
        let approx = Gen_design.approx_cells small_params in
        let actual = Design.n_insts d in
        check Alcotest.bool "close" true
          (approx <= 2 * actual && actual <= 2 * approx));
    tc "no scan variant omits scan ports" (fun () ->
        let d, info =
          Gen_design.generate { small_params with Gen_design.with_scan = false }
        in
        check Alcotest.bool "no scan clk" true (info.Gen_design.scan_clk_port = None);
        check Alcotest.bool "port absent" true (Design.find_port d "scan_clk" = None));
  ]

let suite =
  { Gen_modes.sp_seed = 9; families = [ 3; 2 ]; base_period = 2.0; scan_family = true }

let modes_cases =
  [
    tc "mode count and names" (fun () ->
        let d, info = Gen_design.generate small_params in
        let modes = Gen_modes.generate d info suite in
        check Alcotest.int "five modes" 5 (List.length modes);
        check Alcotest.(list string) "names"
          [ "m0_0"; "m0_1"; "m0_2"; "m1_0"; "m1_1" ]
          (List.map (fun (m : Mode.t) -> m.Mode.mode_name) modes));
    tc "scan family uses the scan clock" (fun () ->
        let d, info = Gen_design.generate small_params in
        let modes = Gen_modes.generate d info suite in
        let scan_mode = List.nth modes 3 in
        check Alcotest.(list string) "scan clock" [ "scan_shift" ]
          (Mode.clock_names scan_mode));
    tc "functional modes clock every domain" (fun () ->
        let d, info = Gen_design.generate small_params in
        let modes = Gen_modes.generate d info suite in
        check Alcotest.int "two domain clocks" 2
          (List.length (List.hd modes).Mode.clocks));
    tc "deterministic sdc text" (fun () ->
        let _d, info = Gen_design.generate small_params in
        check Alcotest.string "same"
          (Gen_modes.sdc_of_mode_spec info suite ~family:0 ~index:1)
          (Gen_modes.sdc_of_mode_spec info suite ~family:0 ~index:1));
    tc "families differ in load value" (fun () ->
        let _d, info = Gen_design.generate small_params in
        let s0 = Gen_modes.sdc_of_mode_spec info suite ~family:0 ~index:0 in
        let s1 = Gen_modes.sdc_of_mode_spec info suite ~family:1 ~index:0 in
        check Alcotest.bool "family 0 load" true
          (String.length s0 > 0
          && Str_probe.contains s0 "set_load 0.01 "
          && Str_probe.contains s1 "set_load 0.015 "));
  ]

let preset_cases =
  [
    tc "tiny preset builds with resolvable modes" (fun () ->
        let design, _info, modes = Presets.build Presets.tiny in
        check Alcotest.bool "cells" true (Design.n_insts design > 50);
        check Alcotest.int "four modes" 4 (List.length modes));
    tc "preset mode counts equal the paper's Table 5" (fun () ->
        List.iter2
          (fun p expected ->
            check Alcotest.int
              (Printf.sprintf "modes of %s" p.Presets.pr_name)
              expected
              (List.fold_left ( + ) 0 p.Presets.suite.Gen_modes.families))
          Presets.all [ 95; 3; 12; 3; 5; 3 ]);
    tc "preset family counts equal the paper's merged counts" (fun () ->
        List.iter
          (fun p ->
            check Alcotest.int
              (Printf.sprintf "families of %s" p.Presets.pr_name)
              p.Presets.paper_merged
              (List.length p.Presets.suite.Gen_modes.families))
          Presets.all);
  ]

let paper_circuit_cases =
  [
    tc "figure 1 inventory" (fun () ->
        let d = Pc.build () in
        let s = Stats.of_design d in
        check Alcotest.int "six registers" 6 s.Stats.registers;
        check Alcotest.bool "mux present" true (Design.find_inst d "mux1" <> None));
    tc "all constraint sets resolve" (fun () ->
        let d = Pc.build () in
        ignore (Pc.constraint_set1 d);
        ignore (Pc.constraint_set2 d);
        ignore (Pc.constraint_set3 d);
        ignore (Pc.constraint_set4 d);
        ignore (Pc.constraint_set5 d);
        ignore (Pc.constraint_set6 d));
    tc "figure 1 has the paper's three data paths" (fun () ->
        let d = Pc.build () in
        let m = Pc.constraint_set1 d in
        let ctx = Mm_timing.Context.create d m in
        let module Rp = Mm_core.Relation_prop in
        let fwd =
          Rp.forward_cone
            (Rp.create_marks ctx.Mm_timing.Context.graph)
            ctx [ Design.pin_of_name_exn d "rA/Q" ]
        in
        let fwd = Rp.in_cone fwd in
        check Alcotest.bool "path i" true (fwd (Design.pin_of_name_exn d "rX/D"));
        check Alcotest.bool "path ii" true (fwd (Design.pin_of_name_exn d "rY/D")));
  ]

let () =
  Alcotest.run "mm_workload"
    [
      "gen_design", gen_cases;
      "gen_modes", modes_cases;
      "presets", preset_cases;
      "paper_circuit", paper_circuit_cases;
    ]
