(* Unit and property tests for Mm_netlist. *)
module Logic = Mm_netlist.Logic
module Lib_cell = Mm_netlist.Lib_cell
module Library = Mm_netlist.Library
module Wire_load = Mm_netlist.Wire_load
module Design = Mm_netlist.Design
module Netlist_io = Mm_netlist.Netlist_io
module Stats = Mm_netlist.Stats

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let tri : Logic.tri Alcotest.testable =
  Alcotest.testable
    (fun fmt t -> Format.pp_print_string fmt (Logic.tri_to_string t))
    ( = )

(* ------------------------------------------------------------------ *)
(* Logic                                                               *)

let env_of_list l i = match List.assoc_opt i l with Some v -> v | None -> Logic.X

let logic_cases =
  [
    tc "and truth table" (fun () ->
        let f = Logic.and_n 2 in
        check tri "11" Logic.T (Logic.eval (env_of_list [ 0, Logic.T; 1, Logic.T ]) f);
        check tri "10" Logic.F (Logic.eval (env_of_list [ 0, Logic.T; 1, Logic.F ]) f);
        check tri "0x dominant" Logic.F
          (Logic.eval (env_of_list [ 0, Logic.F ]) f);
        check tri "1x unknown" Logic.X (Logic.eval (env_of_list [ 0, Logic.T ]) f));
    tc "or dominant one" (fun () ->
        let f = Logic.or_n 3 in
        check tri "x1x" Logic.T (Logic.eval (env_of_list [ 1, Logic.T ]) f);
        check tri "all f" Logic.F
          (Logic.eval (env_of_list [ 0, Logic.F; 1, Logic.F; 2, Logic.F ]) f));
    tc "xor propagates unknown" (fun () ->
        let f = Logic.(Xor (v 0, v 1)) in
        check tri "1x" Logic.X (Logic.eval (env_of_list [ 0, Logic.T ]) f);
        check tri "10" Logic.T
          (Logic.eval (env_of_list [ 0, Logic.T; 1, Logic.F ]) f));
    tc "mux select known" (fun () ->
        let f = Logic.(Mux (v 2, v 0, v 1)) in
        check tri "sel0 picks a0" Logic.T
          (Logic.eval (env_of_list [ 2, Logic.F; 0, Logic.T ]) f);
        check tri "sel1 picks a1" Logic.F
          (Logic.eval (env_of_list [ 2, Logic.T; 1, Logic.F ]) f));
    tc "mux select unknown but branches agree" (fun () ->
        let f = Logic.(Mux (v 2, v 0, v 1)) in
        check tri "agree" Logic.T
          (Logic.eval (env_of_list [ 0, Logic.T; 1, Logic.T ]) f);
        check tri "disagree" Logic.X
          (Logic.eval (env_of_list [ 0, Logic.T; 1, Logic.F ]) f));
    tc "support sorted and deduped" (fun () ->
        let f = Logic.(Or [ v 3 &&& v 1; v 1 ]) in
        check Alcotest.(list int) "support" [ 1; 3 ] (Logic.support f));
    tc "simplify removes cased mux branch" (fun () ->
        let f = Logic.(Mux (v 2, v 0, v 1)) in
        let s = Logic.simplify (env_of_list [ 2, Logic.T ]) f in
        check Alcotest.(list int) "only selected leg" [ 1 ] (Logic.support s));
    tc "observable tracks mux select" (fun () ->
        let f = Logic.(Mux (v 2, v 0, v 1)) in
        let env = env_of_list [ 2, Logic.T ] in
        check Alcotest.bool "d0 dead" false (Logic.observable env f 0);
        check Alcotest.bool "d1 live" true (Logic.observable env f 1);
        check Alcotest.bool "sel dead (cased)" false (Logic.observable env f 2));
    tc "observable with and-gate constant" (fun () ->
        let f = Logic.and_n 2 in
        check Alcotest.bool "killed by 0" false
          (Logic.observable (env_of_list [ 1, Logic.F ]) f 0);
        check Alcotest.bool "enabled by 1" true
          (Logic.observable (env_of_list [ 1, Logic.T ]) f 0));
    tc "to_string forms" (fun () ->
        check Alcotest.string "and" "i0 & i1" (Logic.to_string (Logic.and_n 2));
        check Alcotest.string "not" "!i0" (Logic.to_string Logic.(not_ (v 0))));
  ]

(* Property: simplify preserves semantics under the same partial
   environment. *)
let logic_gen =
  let open QCheck2.Gen in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
         if n = 0 then
           oneof
             [ map (fun b -> Logic.Const b) bool; map (fun i -> Logic.Var i) (0 -- 3) ]
         else
           oneof
             [
               map (fun f -> Logic.Not f) (self (n - 1));
               map2 (fun a b -> Logic.And [ a; b ]) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Logic.Or [ a; b ]) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Logic.Xor (a, b)) (self (n / 2)) (self (n / 2));
               map3
                 (fun s a b -> Logic.Mux (s, a, b))
                 (self (n / 3)) (self (n / 3)) (self (n / 3));
             ])

let logic_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"simplify preserves eval" ~count:1000
         QCheck2.Gen.(pair logic_gen (list_size (0 -- 4) (pair (0 -- 3) bool)))
         (fun (f, partial) ->
           let env i =
             match List.assoc_opt i partial with
             | Some b -> Logic.tri_of_bool b
             | None -> Logic.X
           in
           Logic.eval env (Logic.simplify env f) = Logic.eval env f));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"full assignments never evaluate to X" ~count:1000
         logic_gen
         (fun f ->
           let env i = Logic.tri_of_bool (i mod 2 = 0) in
           Logic.eval env f <> Logic.X));
  ]

(* ------------------------------------------------------------------ *)
(* Lib_cell and Library                                                *)

let cell_cases =
  [
    tc "pin_index finds pins" (fun () ->
        check Alcotest.int "D" 0 (Lib_cell.pin_index Library.dff "D");
        check Alcotest.int "CP" 1 (Lib_cell.pin_index Library.dff "CP");
        Alcotest.check_raises "missing" Not_found (fun () ->
            ignore (Lib_cell.pin_index Library.dff "ZZ")));
    tc "comb_arcs of mux covers all inputs" (fun () ->
        let arcs = Lib_cell.comb_arcs Library.mux2 in
        check Alcotest.int "three arcs" 3 (List.length arcs);
        check Alcotest.bool "to Z" true (List.for_all (fun (_, o) -> o = 3) arcs));
    tc "sequential flags" (fun () ->
        check Alcotest.bool "dff" true (Lib_cell.is_sequential Library.dff);
        check Alcotest.bool "and2" true (Lib_cell.is_combinational Library.and2);
        check Alcotest.bool "icg comb" true (Lib_cell.is_combinational Library.icg));
    tc "dff has no comb arcs" (fun () ->
        check Alcotest.int "none" 0 (List.length (Lib_cell.comb_arcs Library.dff)));
    tc "icg propagates clock combinationally" (fun () ->
        check Alcotest.int "two arcs" 2
          (List.length (Lib_cell.comb_arcs Library.icg)));
    tc "library lookup" (fun () ->
        check Alcotest.bool "found" true (Library.find "SDFF" <> None);
        check Alcotest.bool "missing" true (Library.find "NOPE" = None);
        Alcotest.check_raises "exn"
          (Invalid_argument "Library.find_exn: unknown cell NOPE") (fun () ->
            ignore (Library.find_exn "NOPE")));
    tc "all cells have unique names" (fun () ->
        let names = List.map (fun c -> c.Lib_cell.cell_name) Library.all in
        check Alcotest.int "unique" (List.length names)
          (List.length (List.sort_uniq compare names)));
    tc "scan flop checks D SI SE" (fun () ->
        match Library.sdff.Lib_cell.seq with
        | Some seq ->
          check Alcotest.int "three data pins" 3
            (List.length seq.Lib_cell.data_pins)
        | None -> Alcotest.fail "sdff not sequential");
    tc "tie cells are constant" (fun () ->
        check
          Alcotest.(option bool)
          "tiehi" (Some true)
          (match Lib_cell.function_of_output Library.tiehi 0 with
          | Some (Logic.Const b) -> Some b
          | Some _ | None -> None));
  ]

(* ------------------------------------------------------------------ *)
(* Wire_load                                                           *)

let wlm_cases =
  [
    tc "zero fanout is free" (fun () ->
        check (Alcotest.float 0.) "cap" 0. (Wire_load.wire_cap Wire_load.default 0);
        check (Alcotest.float 0.) "delay" 0.
          (Wire_load.net_delay Wire_load.default ~fanout:0 ~pin_caps:0.));
    tc "cap grows with fanout" (fun () ->
        let w = Wire_load.default in
        let caps = List.map (Wire_load.wire_cap w) [ 1; 2; 4; 8; 16; 32 ] in
        let rec increasing = function
          | a :: (b :: _ as rest) -> a <= b && increasing rest
          | _ -> true
        in
        check Alcotest.bool "monotonic" true (increasing caps));
    tc "interpolates between entries" (fun () ->
        let w = Wire_load.default in
        let c2 = Wire_load.wire_cap w 2 and c4 = Wire_load.wire_cap w 4 in
        let c3 = Wire_load.wire_cap w 3 in
        check Alcotest.bool "between" true (c3 > c2 && c3 < c4));
    tc "extrapolates past table" (fun () ->
        let w = Wire_load.default in
        check Alcotest.bool "beyond" true
          (Wire_load.wire_cap w 100 > Wire_load.wire_cap w 16));
    tc "conservative is heavier" (fun () ->
        check Alcotest.bool "heavier" true
          (Wire_load.wire_cap Wire_load.conservative 4
          > Wire_load.wire_cap Wire_load.default 4));
  ]

(* ------------------------------------------------------------------ *)
(* Design                                                              *)

let small_design () =
  let d = Design.create "t" in
  ignore (Design.add_port d "clk" Design.In);
  ignore (Design.add_port d "in" Design.In);
  ignore (Design.add_port d "out" Design.Out);
  ignore (Design.add_inst d "u1" Library.inv);
  ignore (Design.add_inst d "r1" Library.dff);
  Design.wire d "n_in" [ "in"; "u1/A" ];
  Design.wire d "n_u1" [ "u1/Z"; "r1/D" ];
  Design.wire d "n_clk" [ "clk"; "r1/CP" ];
  Design.wire d "n_out" [ "r1/Q"; "out" ];
  d

let design_cases =
  [
    tc "duplicate names rejected" (fun () ->
        let d = small_design () in
        Alcotest.check_raises "port"
          (Invalid_argument "Design.add_port: duplicate port clk") (fun () ->
            ignore (Design.add_port d "clk" Design.In));
        Alcotest.check_raises "inst"
          (Invalid_argument "Design.add_inst: duplicate instance u1") (fun () ->
            ignore (Design.add_inst d "u1" Library.buf)));
    tc "pin_of_name" (fun () ->
        let d = small_design () in
        check Alcotest.bool "inst pin" true (Design.pin_of_name d "u1/Z" <> None);
        check Alcotest.bool "port pin" true (Design.pin_of_name d "clk" <> None);
        check Alcotest.bool "bad pin" true (Design.pin_of_name d "u1/Q" = None);
        check Alcotest.bool "bad inst" true (Design.pin_of_name d "zz/Q" = None));
    tc "pin_name round trip" (fun () ->
        let d = small_design () in
        let p = Design.pin_of_name_exn d "u1/Z" in
        check Alcotest.string "name" "u1/Z" (Design.pin_name d p));
    tc "driver inference" (fun () ->
        let d = small_design () in
        check Alcotest.bool "output drives" true
          (Design.pin_is_driver d (Design.pin_of_name_exn d "u1/Z"));
        check Alcotest.bool "input port drives" true
          (Design.pin_is_driver d (Design.pin_of_name_exn d "in"));
        check Alcotest.bool "input pin sinks" false
          (Design.pin_is_driver d (Design.pin_of_name_exn d "u1/A"));
        check Alcotest.bool "output port sinks" false
          (Design.pin_is_driver d (Design.pin_of_name_exn d "out")));
    tc "double driver rejected" (fun () ->
        let d = small_design () in
        ignore (Design.add_inst d "u2" Library.buf);
        let n = Design.get_net d "n_u1" in
        Alcotest.check_raises "second driver"
          (Invalid_argument "Design.attach: net n_u1 already driven by u1/Z")
          (fun () -> Design.attach d n (Design.pin_of_name_exn d "u2/Z")));
    tc "double connection rejected" (fun () ->
        let d = small_design () in
        let n = Design.get_net d "other" in
        Alcotest.check_raises "already connected"
          (Invalid_argument "Design.attach: pin u1/A already connected")
          (fun () -> Design.attach d n (Design.pin_of_name_exn d "u1/A")));
    tc "fanout_pins" (fun () ->
        let d = small_design () in
        let q = Design.pin_of_name_exn d "r1/Q" in
        check Alcotest.int "one sink" 1 (List.length (Design.fanout_pins d q));
        let a = Design.pin_of_name_exn d "u1/A" in
        check Alcotest.int "sink has none" 0 (List.length (Design.fanout_pins d a)));
    tc "registers" (fun () ->
        let d = small_design () in
        check Alcotest.int "one reg" 1 (List.length (Design.registers d)));
    tc "counts" (fun () ->
        let d = small_design () in
        check Alcotest.int "ports" 3 (Design.n_ports d);
        check Alcotest.int "insts" 2 (Design.n_insts d);
        check Alcotest.int "nets" 4 (Design.n_nets d));
    tc "pin_role" (fun () ->
        let d = small_design () in
        check Alcotest.bool "clock role" true
          (Design.pin_role d (Design.pin_of_name_exn d "r1/CP")
          = Some Lib_cell.Clock_in);
        check Alcotest.bool "port role" true
          (Design.pin_role d (Design.pin_of_name_exn d "clk") = None));
  ]

(* ------------------------------------------------------------------ *)
(* Netlist_io                                                          *)

let io_cases =
  [
    tc "write/read round trip" (fun () ->
        let d = small_design () in
        let text = Netlist_io.to_string d in
        let d2 = Netlist_io.of_string text in
        check Alcotest.string "stats equal"
          (Stats.to_string (Stats.of_design d))
          (Stats.to_string (Stats.of_design d2));
        let q = Design.pin_of_name_exn d2 "r1/Q" in
        check
          Alcotest.(list string)
          "fanout" [ "out" ]
          (List.map (Design.pin_name d2) (Design.fanout_pins d2 q)));
    tc "generator designs round trip" (fun () ->
        let design, _info =
          Mm_workload.Gen_design.generate
            { Mm_workload.Gen_design.default_params with seed = 77 }
        in
        let d2 = Netlist_io.of_string (Netlist_io.to_string design) in
        check Alcotest.string "stats"
          (Stats.to_string (Stats.of_design design))
          (Stats.to_string (Stats.of_design d2)));
    tc "unknown cell rejected" (fun () ->
        Alcotest.check_raises "fail"
          (Failure "netlist: line 2: unknown cell BOGUS") (fun () ->
            ignore (Netlist_io.of_string "design t\ninst x BOGUS\n")));
    tc "missing design line rejected" (fun () ->
        Alcotest.check_raises "fail"
          (Failure "netlist: line 1: expected 'design <name>' first") (fun () ->
            ignore (Netlist_io.of_string "port in a\n")));
    tc "comments and blank lines ignored" (fun () ->
        let d = Netlist_io.of_string "# hello\ndesign t\n\nport in a # tail\n" in
        check Alcotest.int "one port" 1 (Design.n_ports d));
    tc "empty input rejected" (fun () ->
        Alcotest.check_raises "fail" (Failure "netlist: empty input") (fun () ->
            ignore (Netlist_io.of_string "# nothing\n")));
  ]

(* Every message the reader can give, with the line it names. *)
let reader_errors =
  let head = "design t\nport in a\nport out z\ninst u INV\n" in
  [
    "duplicate design line", "design t\ndesign u\n", 2,
    "duplicate design line";
    "bad port direction", "design t\nport inout a\n", 2,
    "port direction must be 'in' or 'out'";
    "duplicate port", head ^ "port out a\n", 5,
    "Design.add_port: duplicate port a";
    "duplicate instance", head ^ "inst u BUF\n", 5,
    "Design.add_inst: duplicate instance u";
    "unknown pin in a net line", head ^ "net n a u/Q\n", 5,
    "Design: no pin named u/Q";
    "unknown instance in a net line", head ^ "net n a v/A\n", 5,
    "Design: no pin named v/A";
    "unknown port in a net line", head ^ "net n b u/A\n", 5,
    "Design: no pin named b";
    "second driver", head ^ "inst w BUF\nnet n u/Z w/Z\n", 6,
    "Design.attach: net n already driven by u/Z";
    "pin on two nets", head ^ "net n a u/A\nnet m a z\n", 6,
    "Design.attach: pin a already connected";
    "unknown keyword", "design t\nwire n\n", 2, "unknown keyword wire";
    "design usage", "design\n", 1, "usage: design <name>";
    "design usage, two names", "design t u\n", 1, "usage: design <name>";
    "port usage", "design t\nport in\n", 2, "usage: port <in|out> <name>";
    "port usage, extra word", "design t\nport in a b\n", 2,
    "usage: port <in|out> <name>";
    "inst usage", "design t\ninst u\n", 2, "usage: inst <name> <cell>";
    "net usage, no pins", "design t\nnet n\n", 2,
    "usage: net <name> <pin> <pin>...";
    "net usage, no name", "design t\nnet\n", 2,
    "usage: net <name> <pin> <pin>...";
    "port before design", "\n# c\nport in a\n", 3,
    "expected 'design <name>' first";
    "inst before design", "inst u INV\n", 1, "expected 'design <name>' first";
    "net before design", "net n a\n", 1, "expected 'design <name>' first";
  ]
  |> List.map (fun (name, text, line, msg) ->
         tc ("reader error: " ^ name) (fun () ->
             Alcotest.check_raises name
               (Failure (Printf.sprintf "netlist: line %d: %s" line msg))
               (fun () -> ignore (Netlist_io.of_string text))))

(* The text form keeps every id and its order, not just the counts:
   reading a written design and writing it again gives the same text. *)
let io_props =
  let gen =
    QCheck2.Gen.(
      map
        (fun (seed, (domains, regs, scan)) ->
          {
            Mm_workload.Gen_design.default_params with
            seed;
            n_domains = domains;
            regs_per_domain = regs;
            with_scan = scan;
          })
        (pair (0 -- 10_000) (triple (1 -- 3) (1 -- 12) bool)))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"text round trip keeps ids and order" ~count:40
         gen (fun params ->
           let design, _info = Mm_workload.Gen_design.generate params in
           let text = Netlist_io.to_string design in
           String.equal text (Netlist_io.to_string (Netlist_io.of_string text))));
  ]

let stats_cases =
  [
    tc "stats fields" (fun () ->
        let s = Stats.of_design (small_design ()) in
        check Alcotest.int "regs" 1 s.Stats.registers;
        check Alcotest.int "comb" 1 s.Stats.combinational;
        check Alcotest.int "maxfo" 1 s.Stats.max_fanout);
  ]

(* ------------------------------------------------------------------ *)
(* Liberty                                                             *)

module Liberty = Mm_netlist.Liberty

let sample_lib = {|
/* a comment */
library (demo) {
  time_unit : "1ns";
  cell (AO21) {
    area : 2.0;
    pin (A) { direction : input; capacitance : 0.003; }
    pin (B) { direction : input; capacitance : 0.003; }
    pin (C) { direction : input; capacitance : 0.003; }
    pin (Z) {
      direction : output;
      function : "(A * B) + C";
      timing () { intrinsic_rise : 0.07; rise_resistance : 1.2; }
    }
  }
  cell (SDFFX) {
    ff (IQ, IQN) {
      clocked_on : "CK";
      next_state : "(D * !SE) + (SI * SE)";
    }
    pin (D)  { direction : input; capacitance : 0.002; }
    pin (SI) { direction : input; nextstate_type : scan_in; }
    pin (SE) { direction : input; nextstate_type : scan_enable; }
    pin (CK) { direction : input; clock : true; }
    pin (Q)  { direction : output; function : "IQ"; }
  }
}
|}

let liberty_cases =
  [
    tc "parses groups, comments and strings" (fun () ->
        match Liberty.parse_groups sample_lib with
        | [ lib ] ->
          check Alcotest.string "kind" "library" lib.Liberty.g_kind;
          check Alcotest.(list string) "args" [ "demo" ] lib.Liberty.g_args;
          check Alcotest.int "two cells" 2
            (List.length
               (List.filter (fun g -> g.Liberty.g_kind = "cell") lib.Liberty.g_groups))
        | _ -> Alcotest.fail "expected one library");
    tc "interprets a combinational cell" (fun () ->
        let lib = Liberty.load sample_lib in
        let ao = List.find (fun c -> c.Lib_cell.cell_name = "AO21") lib.Liberty.cells in
        check Alcotest.int "arcs" 3 (List.length (Lib_cell.comb_arcs ao));
        check (Alcotest.float 1e-9) "intrinsic" 0.07 ao.Lib_cell.intrinsic;
        check (Alcotest.float 1e-9) "drive" 1.2 ao.Lib_cell.drive_res;
        (* semantics: (A*B)+C *)
        match Lib_cell.function_of_output ao 3 with
        | Some f ->
          let env l i = List.nth l i in
          check tri "110" Logic.T (Logic.eval (env [ Logic.T; Logic.T; Logic.F ]) f);
          check tri "001" Logic.T (Logic.eval (env [ Logic.F; Logic.F; Logic.T ]) f);
          check tri "100" Logic.F (Logic.eval (env [ Logic.T; Logic.F; Logic.F ]) f)
        | None -> Alcotest.fail "no function");
    tc "interprets a scan flop" (fun () ->
        let lib = Liberty.load sample_lib in
        let ff = List.find (fun c -> c.Lib_cell.cell_name = "SDFFX") lib.Liberty.cells in
        match ff.Lib_cell.seq with
        | Some seq ->
          check Alcotest.int "clock pin CK" 3 seq.Lib_cell.clock_pin;
          check Alcotest.(list int) "data pins D SI SE" [ 0; 1; 2 ]
            (List.sort compare seq.Lib_cell.data_pins);
          check Alcotest.(list int) "q" [ 4 ] seq.Lib_cell.q_pins;
          check Alcotest.bool "scan_in role" true
            (ff.Lib_cell.pins.(1).Lib_cell.role = Lib_cell.Scan_in)
        | None -> Alcotest.fail "not sequential");
    tc "function parser operator forms" (fun () ->
        let names n = match n with "a" -> Some 0 | "b" -> Some 1 | _ -> None in
        let f = Liberty.parse_function ~names "a' + !b" in
        let env l i = List.nth l i in
        check tri "00" Logic.T (Logic.eval (env [ Logic.F; Logic.F ]) f);
        check tri "11" Logic.F (Logic.eval (env [ Logic.T; Logic.T ]) f);
        let g = Liberty.parse_function ~names "a b" in
        check tri "juxtaposition is and" Logic.T
          (Logic.eval (env [ Logic.T; Logic.T ]) g);
        let h = Liberty.parse_function ~names "a ^ b" in
        check tri "xor" Logic.T (Logic.eval (env [ Logic.T; Logic.F ]) h));
    tc "builtin library round trips semantically" (fun () ->
        let lib = Liberty.load (Liberty.builtin_liberty ()) in
        check Alcotest.int "all cells" (List.length Library.all)
          (List.length lib.Liberty.cells);
        List.iter
          (fun (orig : Lib_cell.t) ->
            let re =
              List.find
                (fun c -> c.Lib_cell.cell_name = orig.Lib_cell.cell_name)
                lib.Liberty.cells
            in
            check Alcotest.int
              (orig.Lib_cell.cell_name ^ " pins")
              (Array.length orig.Lib_cell.pins)
              (Array.length re.Lib_cell.pins);
            check Alcotest.bool
              (orig.Lib_cell.cell_name ^ " seq")
              (Lib_cell.is_sequential orig)
              (Lib_cell.is_sequential re);
            (* function semantics over all assignments of <=4 inputs *)
            List.iter
              (fun (o, f_orig) ->
                match Lib_cell.function_of_output re o with
                | None -> Alcotest.fail "lost function"
                | Some f_re ->
                  let support =
                    List.sort_uniq compare (Logic.support f_orig @ Logic.support f_re)
                  in
                  let k = List.length support in
                  for mask = 0 to (1 lsl k) - 1 do
                    let env i =
                      match List.find_index (( = ) i) support with
                      | Some pos ->
                        if mask land (1 lsl pos) <> 0 then Logic.T else Logic.F
                      | None -> Logic.X
                    in
                    check tri
                      (Printf.sprintf "%s out %d mask %d" orig.Lib_cell.cell_name o mask)
                      (Logic.eval env f_orig) (Logic.eval env f_re)
                  done)
              orig.Lib_cell.functions;
            (* sequential structure *)
            match orig.Lib_cell.seq, re.Lib_cell.seq with
            | Some a, Some b ->
              check Alcotest.int "clock pin" a.Lib_cell.clock_pin b.Lib_cell.clock_pin;
              check Alcotest.(list int) "data pins"
                (List.sort compare a.Lib_cell.data_pins)
                (List.sort compare b.Lib_cell.data_pins);
              check Alcotest.bool "edge" true (a.Lib_cell.clock_edge = b.Lib_cell.clock_edge);
              check (Alcotest.float 1e-9) "setup" a.Lib_cell.setup b.Lib_cell.setup
            | None, None -> ()
            | _ -> Alcotest.fail "seq mismatch")
          Library.all);
    tc "syntax errors are reported with lines" (fun () ->
        try
          ignore (Liberty.parse_groups "library (x) {
  cell (y) {
");
          Alcotest.fail "no error"
        with Liberty.Parse_error { line; _ } ->
          check Alcotest.bool "line recorded" true (line >= 2));
  ]

(* ------------------------------------------------------------------ *)
(* Verilog                                                             *)

module Verilog = Mm_netlist.Verilog

let sample_v = {|
// a pipeline
module top (clk, in1, out1);
  input clk, in1;
  output out1;
  wire n1, n2;
  INV u1 (.A(in1), .Z(n1));
  DFF r1 (.D(n1), .CP(clk), .Q(n2), .QN());
  BUF u2 (n2, out1);          // positional
  AND2 u3 (.A(n2), .B(1'b1), .Z());
endmodule
|}

let verilog_cases =
  [
    tc "reads named, positional, const and open connections" (fun () ->
        let d = Verilog.read sample_v in
        check Alcotest.int "ports" 3 (Design.n_ports d);
        (* INV DFF BUF AND2 + one tie cell *)
        check Alcotest.int "insts" 5 (Design.n_insts d);
        let q = Design.pin_of_name_exn d "r1/Q" in
        let fanout = List.map (Design.pin_name d) (Design.fanout_pins d q) in
        check Alcotest.bool "chain includes u2/A" true (List.mem "u2/A" fanout);
        (* tie cell feeds the AND2 B input *)
        let b = Design.pin_of_name_exn d "u3/B" in
        check Alcotest.bool "tied" true (Design.pin_net d b <> None));
    tc "assign lowers to a buffer" (fun () ->
        let d =
          Verilog.read
            "module t (a, b);\n input a;\n output b;\n assign b = a;\nendmodule\n"
        in
        check Alcotest.int "one buffer" 1 (Design.n_insts d));
    tc "unknown cell is a helpful error" (fun () ->
        try
          ignore (Verilog.read "module t (a);\ninput a;\nSUBMOD u (.x(a));\nendmodule");
          Alcotest.fail "no error"
        with Verilog.Error { msg; _ } ->
          check Alcotest.bool "mentions flattening" true
            (Str_probe.contains msg "flattened"));
    tc "a declaration that lost its ';' is rejected" (fun () ->
        match Verilog.read "module top (a);\n input a\n wire ;\nendmodule\n" with
        | _ -> Alcotest.fail "accepted"
        | exception Verilog.Error { line; msg } ->
          check Alcotest.(pair int string) "line and message"
            (2, "missing ';' after a") (line, msg));
    tc "a nameless wire is rejected" (fun () ->
        match Verilog.read "module top (a);\n input a;\n wire ;\nendmodule\n" with
        | _ -> Alcotest.fail "accepted"
        | exception Verilog.Error { line; msg } ->
          check Alcotest.(pair int string) "line and message"
            (3, "wire declaration without a name") (line, msg));
    tc "a declaration ending in a comma is rejected" (fun () ->
        match Verilog.read "module top (a, b);\n input a,\n b,;\nendmodule\n" with
        | _ -> Alcotest.fail "accepted"
        | exception Verilog.Error { line; msg } ->
          check Alcotest.(pair int string) "line and message"
            (2, "input declaration ends in ','") (line, msg));
    tc "top selection by name" (fun () ->
        let two =
          "module a (x);\ninput x;\nendmodule\nmodule b (y);\ninput y;\nendmodule\n"
        in
        let d = Verilog.read ~top:"a" two in
        check Alcotest.string "picked a" "a" (Design.design_name d);
        let d2 = Verilog.read two in
        check Alcotest.string "default last" "b" (Design.design_name d2));
    tc "write/read round trip preserves structure" (fun () ->
        let d = small_design () in
        let v = Verilog.write d in
        let d2 = Verilog.read v in
        check Alcotest.string "stats equal"
          (Stats.to_string (Stats.of_design d))
          (Stats.to_string (Stats.of_design d2));
        let q = Design.pin_of_name_exn d2 "r1/Q" in
        check Alcotest.(list string) "port connectivity" [ "out" ]
          (List.map (Design.pin_name d2) (Design.fanout_pins d2 q)));
    tc "generated design round trips through verilog" (fun () ->
        let design, _info =
          Mm_workload.Gen_design.generate
            { Mm_workload.Gen_design.default_params with seed = 78; regs_per_domain = 16 }
        in
        let d2 = Verilog.read (Verilog.write design) in
        (* Nets feeding several output ports come back with buffer
           insertions for the extra ports, so instance counts may grow
           but never shrink; registers and ports are exact. *)
        check Alcotest.bool "insts preserved" true
          (Design.n_insts d2 >= Design.n_insts design);
        check Alcotest.int "registers" (List.length (Design.registers design))
          (List.length (Design.registers d2));
        check Alcotest.int "ports" (Design.n_ports design) (Design.n_ports d2));
    tc "custom library lookup" (fun () ->
        let lib = Mm_netlist.Liberty.load sample_lib in
        let find name =
          List.find_opt
            (fun c -> c.Lib_cell.cell_name = name)
            lib.Mm_netlist.Liberty.cells
        in
        let d =
          Verilog.read ~lib:find
            "module t (a, b, c, z);\n input a, b, c;\n output z;\n\
             AO21 u (.A(a), .B(b), .C(c), .Z(z));\nendmodule"
        in
        check Alcotest.int "one inst" 1 (Design.n_insts d));
  ]

let () =
  Alcotest.run "mm_netlist"
    [
      "logic", logic_cases @ logic_props;
      "lib_cell", cell_cases;
      "wire_load", wlm_cases;
      "design", design_cases;
      "netlist_io", io_cases @ reader_errors @ io_props;
      "stats", stats_cases;
      "liberty", liberty_cases;
      "verilog", verilog_cases;
    ]
