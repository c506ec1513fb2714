(* Unit and property tests for Mm_sdc: lexer, parser, writer round
   trips, query resolution and mode semantics. *)
module Lexer = Mm_sdc.Lexer
module Parser = Mm_sdc.Parser
module Writer = Mm_sdc.Writer
module Ast = Mm_sdc.Ast
module Resolve = Mm_sdc.Resolve
module Mode = Mm_sdc.Mode
module Design = Mm_netlist.Design
module Diag = Mm_util.Diag

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

let lexer_cases =
  [
    tc "splits commands on newlines and semicolons" (fun () ->
        let cmds = Lexer.tokenize "a b\nc; d e" in
        check Alcotest.int "three" 3 (List.length cmds));
    tc "comments removed" (fun () ->
        let cmds = Lexer.tokenize "# full line\na b # trailing\n" in
        check Alcotest.int "one" 1 (List.length cmds);
        check Alcotest.int "two toks" 2 (List.length (List.hd cmds)));
    tc "line continuation merges" (fun () ->
        let cmds = Lexer.tokenize "a \\\nb" in
        check Alcotest.int "one cmd" 1 (List.length cmds);
        check Alcotest.int "two toks" 2 (List.length (List.hd cmds)));
    tc "brackets nest" (fun () ->
        match Lexer.tokenize "x [get_ports {a b}]" with
        | [ [ Lexer.Atom "x"; Lexer.Bracket [ Lexer.Atom "get_ports"; Lexer.Brace [ "a"; "b" ] ] ] ] ->
          ()
        | _ -> Alcotest.fail "unexpected token tree");
    tc "newline inside brackets allowed" (fun () ->
        match Lexer.tokenize "x [a\nb]" with
        | [ [ Lexer.Atom "x"; Lexer.Bracket [ Lexer.Atom "a"; Lexer.Atom "b" ] ] ] -> ()
        | _ -> Alcotest.fail "unexpected");
    tc "quoted strings keep spaces" (fun () ->
        match Lexer.tokenize "x \"a b\"" with
        | [ [ Lexer.Atom "x"; Lexer.Atom "a b" ] ] -> ()
        | _ -> Alcotest.fail "unexpected");
    tc "unbalanced bracket raises" (fun () ->
        (try
           ignore (Lexer.tokenize "x [a");
           Alcotest.fail "no error"
         with Lexer.Error { msg; _ } ->
           check Alcotest.string "msg" "unterminated [" msg));
    tc "unbalanced close raises" (fun () ->
        (try
           ignore (Lexer.tokenize "x a]");
           Alcotest.fail "no error"
         with Lexer.Error { msg; _ } -> check Alcotest.string "msg" "unbalanced ]" msg));
    tc "nested braces flatten words" (fun () ->
        match Lexer.tokenize "x {a {b c}}" with
        | [ [ Lexer.Atom "x"; Lexer.Brace words ] ] ->
          check Alcotest.bool "has inner" true (List.mem "{b" words || List.mem "b" words)
        | _ -> Alcotest.fail "unexpected");
    tc "tok_to_string round trip text" (fun () ->
        let t = Lexer.Bracket [ Lexer.Atom "get_ports"; Lexer.Brace [ "a"; "b" ] ] in
        check Alcotest.string "text" "[get_ports {a b}]" (Lexer.tok_to_string t));
  ]

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

let parse1 src =
  match Parser.parse_string src with
  | [ cmd ] -> cmd
  | cmds -> Alcotest.failf "expected one command, got %d" (List.length cmds)

(* Parse errors now carry the command's source location; assert both
   the message and (when given) the 1-based line it points at. *)
let expect_parse_error ?line msg src =
  match Parser.parse_string src with
  | _ -> Alcotest.failf "expected a parse error for: %s" src
  | exception Parser.Error { loc; msg = m } ->
    check Alcotest.string "msg" msg m;
    (match line with
    | None -> ()
    | Some l -> (
      match loc with
      | Some dl -> check Alcotest.int "line" l dl.Mm_util.Diag.line
      | None -> Alcotest.fail "expected a located error"))

let parser_cases =
  [
    tc "create_clock full form" (fun () ->
        match parse1 "create_clock -name clkA -period 10 -waveform {0 5} [get_ports clk1]" with
        | Ast.Create_clock c ->
          check Alcotest.(option string) "name" (Some "clkA") c.Ast.cc_name;
          check (Alcotest.float 0.) "period" 10. c.Ast.period;
          check Alcotest.bool "waveform" true (c.Ast.waveform = Some (0., 5.));
          check Alcotest.bool "sources" true (c.Ast.sources = [ Ast.Get_ports [ "clk1" ] ])
        | _ -> Alcotest.fail "wrong command");
    tc "create_clock -p abbreviation" (fun () ->
        match parse1 "create_clock -p 10 -name c [get_port x]" with
        | Ast.Create_clock c -> check (Alcotest.float 0.) "period" 10. c.Ast.period
        | _ -> Alcotest.fail "wrong command");
    tc "create_clock requires period" (fun () ->
        expect_parse_error ~line:1 "create_clock: -period is required"
          "create_clock -name x [get_ports p]");
    tc "generated clock" (fun () ->
        match
          parse1
            "create_generated_clock -name g -source [get_pins u/Z] -divide_by 2 \
             -master_clock clkA [get_pins r/CP]"
        with
        | Ast.Create_generated_clock g ->
          check Alcotest.int "div" 2 g.Ast.divide_by;
          check Alcotest.(option string) "master" (Some "clkA") g.Ast.master_clock
        | _ -> Alcotest.fail "wrong command");
    tc "clock latency min/max accumulation" (fun () ->
        (match parse1 "set_clock_latency -source -min 1.0 [get_clocks c]" with
        | Ast.Set_clock_latency l ->
          check Alcotest.bool "source" true l.Ast.lat_source;
          check Alcotest.bool "min" true (l.Ast.lat_minmax = Ast.Min)
        | _ -> Alcotest.fail "wrong");
        match parse1 "set_clock_latency -min -max 1.0 [get_clocks c]" with
        | Ast.Set_clock_latency l -> check Alcotest.bool "both" true (l.Ast.lat_minmax = Ast.Both)
        | _ -> Alcotest.fail "wrong");
    tc "uncertainty defaults to both" (fun () ->
        match parse1 "set_clock_uncertainty 0.1 [get_clocks c]" with
        | Ast.Set_clock_uncertainty u ->
          check Alcotest.bool "setup" true u.Ast.unc_setup;
          check Alcotest.bool "hold" true u.Ast.unc_hold
        | _ -> Alcotest.fail "wrong");
    tc "input delay with clock query form" (fun () ->
        match parse1 "set_input_delay 2 -clock [get_clocks clkA] -add_delay [get_ports in1]" with
        | Ast.Set_input_delay d ->
          check Alcotest.(option string) "clock" (Some "clkA") d.Ast.io_clock;
          check Alcotest.bool "add" true d.Ast.io_add_delay
        | _ -> Alcotest.fail "wrong");
    tc "case analysis value forms" (fun () ->
        (match parse1 "set_case_analysis 0 sel1" with
        | Ast.Set_case_analysis c -> check Alcotest.bool "zero" false c.Ast.ca_value
        | _ -> Alcotest.fail "wrong");
        match parse1 "set_case_analysis one sel1" with
        | Ast.Set_case_analysis c -> check Alcotest.bool "one" true c.Ast.ca_value
        | _ -> Alcotest.fail "wrong");
    tc "disable timing with from/to" (fun () ->
        match parse1 "set_disable_timing -from A -to Z [get_cells u1]" with
        | Ast.Set_disable_timing dt ->
          check Alcotest.(option string) "from" (Some "A") dt.Ast.dis_from;
          check Alcotest.(option string) "to" (Some "Z") dt.Ast.dis_to
        | _ -> Alcotest.fail "wrong");
    tc "false path spec with ordered throughs" (fun () ->
        match
          parse1 "set_false_path -from [get_clocks a] -through u1/Z -through u2/Z -to rX/D"
        with
        | Ast.Set_false_path spec ->
          check Alcotest.int "two groups" 2 (List.length spec.Ast.ps_through);
          check Alcotest.bool "order" true
            (spec.Ast.ps_through = [ [ Ast.Name "u1/Z" ]; [ Ast.Name "u2/Z" ] ])
        | _ -> Alcotest.fail "wrong");
    tc "multicycle defaults to setup only" (fun () ->
        match parse1 "set_multicycle_path 2 -from x" with
        | Ast.Set_multicycle_path m ->
          check Alcotest.int "mult" 2 m.Ast.mcp_mult;
          check Alcotest.bool "setup" true m.Ast.mcp_spec.Ast.ps_setup;
          check Alcotest.bool "no hold" false m.Ast.mcp_spec.Ast.ps_hold
        | _ -> Alcotest.fail "wrong");
    tc "multicycle hold flag" (fun () ->
        match parse1 "set_multicycle_path 1 -hold -from x" with
        | Ast.Set_multicycle_path m ->
          check Alcotest.bool "hold" true m.Ast.mcp_spec.Ast.ps_hold;
          check Alcotest.bool "not setup" false m.Ast.mcp_spec.Ast.ps_setup
        | _ -> Alcotest.fail "wrong");
    tc "min/max delay" (fun () ->
        (match parse1 "set_max_delay 5.5 -to [get_ports out1]" with
        | Ast.Set_max_delay b -> check (Alcotest.float 0.) "v" 5.5 b.Ast.db_value
        | _ -> Alcotest.fail "wrong");
        match parse1 "set_min_delay 0.5 -from a" with
        | Ast.Set_min_delay b -> check (Alcotest.float 0.) "v" 0.5 b.Ast.db_value
        | _ -> Alcotest.fail "wrong");
    tc "negative delay value allowed" (fun () ->
        match parse1 "set_max_delay -1.5 -to x" with
        | Ast.Set_max_delay b -> check (Alcotest.float 0.) "v" (-1.5) b.Ast.db_value
        | _ -> Alcotest.fail "wrong");
    tc "clock groups" (fun () ->
        match
          parse1
            "set_clock_groups -physically_exclusive -name g -group [get_clocks a] -group [get_clocks b]"
        with
        | Ast.Set_clock_groups g ->
          check Alcotest.int "two groups" 2 (List.length g.Ast.cg_groups);
          check Alcotest.bool "kind" true (g.Ast.cg_kind = Ast.Physically_exclusive)
        | _ -> Alcotest.fail "wrong");
    tc "clock groups requires exclusivity" (fun () ->
        expect_parse_error ~line:1 "set_clock_groups: missing exclusivity flag"
          "set_clock_groups -group [get_clocks a]");
    tc "clock sense" (fun () ->
        match
          parse1 "set_clock_sense -stop_propagation -clock [get_clocks a] [get_pins m/Z]"
        with
        | Ast.Set_clock_sense s ->
          check Alcotest.bool "stop" true s.Ast.sense_stop;
          check Alcotest.bool "clocks" true (s.Ast.sense_clocks <> None)
        | _ -> Alcotest.fail "wrong");
    tc "environment commands" (fun () ->
        (match parse1 "set_load 0.02 [get_ports out1]" with
        | Ast.Set_env e -> check Alcotest.bool "load" true (e.Ast.env_kind = Ast.Load)
        | _ -> Alcotest.fail "wrong");
        (match parse1 "set_drive 0.5 [all_inputs]" with
        | Ast.Set_env e -> check Alcotest.bool "drive" true (e.Ast.env_kind = Ast.Drive)
        | _ -> Alcotest.fail "wrong");
        match parse1 "set_input_transition -max 0.3 [get_ports in1]" with
        | Ast.Set_env e ->
          check Alcotest.bool "trans" true (e.Ast.env_kind = Ast.Input_transition);
          check Alcotest.bool "max" true (e.Ast.env_minmax = Ast.Max)
        | _ -> Alcotest.fail "wrong");
    tc "design rule commands" (fun () ->
        (match parse1 "set_max_transition 0.4 [get_ports out1]" with
        | Ast.Set_drc d ->
          check Alcotest.bool "kind" true (d.Ast.drc_kind = Ast.Max_transition);
          check (Alcotest.float 0.) "value" 0.4 d.Ast.drc_value
        | _ -> Alcotest.fail "wrong");
        match parse1 "set_max_capacitance 0.05 [get_pins u1/Z]" with
        | Ast.Set_drc d ->
          check Alcotest.bool "kind" true (d.Ast.drc_kind = Ast.Max_capacitance)
        | _ -> Alcotest.fail "wrong");
    tc "propagated clock" (fun () ->
        match parse1 "set_propagated_clock [all_clocks]" with
        | Ast.Set_propagated_clock [ Ast.All_clocks ] -> ()
        | _ -> Alcotest.fail "wrong");
    tc "unknown command rejected" (fun () ->
        expect_parse_error ~line:1 "unknown command set_blah" "set_blah 1 2");
    tc "unknown flag rejected" (fun () ->
        expect_parse_error ~line:1 "create_clock: unknown flag -bogus"
          "create_clock -bogus -period 1 x");
    tc "all_registers query" (fun () ->
        match parse1 "set_false_path -from [all_registers -clock_pins]" with
        | Ast.Set_false_path { ps_from = Some [ Ast.All_registers { clock_pins = true } ]; _ } ->
          ()
        | _ -> Alcotest.fail "wrong");
  ]

(* ------------------------------------------------------------------ *)
(* Error recovery: parse_string_recover golden diagnostics             *)

let rendered diags = List.map Diag.to_string diags

let recover_cases =
  [
    tc "bad clock value: located diagnostic, rest of file kept" (fun () ->
        let cmds, diags =
          Parser.parse_string_recover ~file:"t.sdc"
            "create_clock -period xyz -name c [get_ports clk1]\n\
             set_case_analysis 0 sel1"
        in
        check Alcotest.int "one survivor" 1 (List.length cmds);
        check
          Alcotest.(list string)
          "golden"
          [
            "t.sdc:1:1: error[sdc.bad-args]: create_clock: -period expects a \
             number, got xyz";
          ]
          (rendered diags));
    tc "unknown command: code and location" (fun () ->
        let cmds, diags =
          Parser.parse_string_recover ~file:"t.sdc"
            "create_clock -period 1 -name c [get_ports clk1]\n\
             set_blah 1 2\n\
             set_case_analysis 0 sel1"
        in
        check Alcotest.int "two survivors" 2 (List.length cmds);
        check
          Alcotest.(list string)
          "golden"
          [ "t.sdc:2:1: error[sdc.unknown-command]: unknown command set_blah" ]
          (rendered diags));
    tc "truncated file: unterminated bracket diagnostic" (fun () ->
        let cmds, diags =
          Parser.parse_string_recover ~file:"t.sdc"
            "set_case_analysis 0 sel1\nset_false_path -from [get_ports in1"
        in
        check Alcotest.int "one survivor" 1 (List.length cmds);
        match diags with
        | [ d ] ->
          check Alcotest.string "code" "lex.unterminated-bracket" d.Diag.code;
          check Alcotest.bool "located" true (d.Diag.dloc <> None)
        | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
    tc "semicolon resynchronisation keeps same-line commands" (fun () ->
        let cmds, diags =
          Parser.parse_string_recover "set_bogus 1; set_case_analysis 0 sel1"
        in
        check Alcotest.int "one survivor" 1 (List.length cmds);
        check Alcotest.int "one diag" 1 (List.length diags));
    tc "multiple errors each recover independently" (fun () ->
        let cmds, diags =
          Parser.parse_string_recover
            "set_blah\n\
             create_clock -period 1 -name a [get_ports clk1]\n\
             set_false_path -wrong_flag\n\
             set_case_analysis 1 sel1"
        in
        check Alcotest.int "two survivors" 2 (List.length cmds);
        check Alcotest.int "two diags" 2 (List.length diags);
        check Alcotest.bool "all error severity" true
          (List.for_all (fun d -> d.Diag.severity = Diag.Error) diags));
    tc "strict parse of the same input still raises" (fun () ->
        expect_parse_error ~line:1 "unknown command set_blah"
          "set_blah\nset_case_analysis 1 sel1");
    tc "clean input yields no diagnostics" (fun () ->
        let cmds, diags =
          Parser.parse_string_recover
            "create_clock -period 1 -name c [get_ports clk1]"
        in
        check Alcotest.int "one" 1 (List.length cmds);
        check Alcotest.(list string) "none" [] (rendered diags));
  ]

(* Resolve diagnostics through the robust front end. *)
let robust_resolve_cases =
  [
    tc "unknown port resolves to a located warning diagnostic" (fun () ->
        let d = Mm_workload.Paper_circuit.build () in
        let r =
          Resolve.mode_of_string_robust ~file:"t.sdc" d ~name:"t"
            "set_case_analysis 0 nosuchpin"
        in
        check
          Alcotest.(list string)
          "golden"
          [ "t.sdc:1:1: warning[sdc.unresolved-object]: unresolved object nosuchpin" ]
          (rendered r.Resolve.diags);
        check Alcotest.bool "not an error" false (Diag.has_errors r.Resolve.diags));
    tc "corrupt command quarantinable, valid clock still resolves" (fun () ->
        let d = Mm_workload.Paper_circuit.build () in
        let r =
          Resolve.mode_of_string_robust ~file:"t.sdc" d ~name:"t"
            "create_clock -period bogus -name c [get_ports clk1]\n\
             create_clock -period 2 -name ok [get_ports clk2]"
        in
        check Alcotest.(list string) "good clock kept" [ "ok" ]
          (Mode.clock_names r.Resolve.mode);
        check Alcotest.bool "has errors" true (Diag.has_errors r.Resolve.diags));
    tc "strict mode_of_string still raises on syntax" (fun () ->
        let d = Mm_workload.Paper_circuit.build () in
        match Resolve.mode_of_string d ~name:"t" "set_blah 1" with
        | _ -> Alcotest.fail "expected Parser.Error"
        | exception Parser.Error _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Writer round trips                                                  *)

let corpus =
  [
    "create_clock -name clkA -period 10 [get_ports clk1]";
    "create_clock -name clkB -period 20 -waveform {5 15} -add [get_ports clk2]";
    "create_generated_clock -name g -source [get_pins u/Z] -master_clock m -divide_by 4 -invert [get_pins r/CP]";
    "set_clock_latency -source -min 0.98 [get_clocks clkB]";
    "set_clock_uncertainty -setup 0.1 [get_clocks clkA]";
    "set_clock_transition -max 0.2 [get_clocks clkA]";
    "set_propagated_clock [get_clocks clkA]";
    "set_input_delay -clock clkA 2 [get_ports in1]";
    "set_output_delay -clock clkB -min -add_delay 1.5 [get_ports out1]";
    "set_case_analysis 1 sel2";
    "set_disable_timing -from A -to Z [get_cells u1]";
    "set_false_path -from [get_clocks clkA] -through [get_pins {a/Z b/Z}] -to [get_pins rX/D]";
    "set_multicycle_path 2 -start -from [get_clocks clkA]";
    "set_min_delay 0.5 -to [get_ports out1]";
    "set_max_delay 4 -through [get_pins u/Z]";
    "set_clock_groups -asynchronous -group [get_clocks a] -group [get_clocks b]";
    "set_clock_sense -stop_propagation -clock [get_clocks clkA] [get_pins mux1/Z]";
    "set_load 0.02 [get_ports out1]";
    "set_max_transition 0.4 [get_ports out1]";
    "set_max_capacitance 0.05 [get_pins inv1/Z]";
    "set_false_path -rise_from [get_clocks clkA] -to [get_pins rX/D]";
    "set_false_path -from [get_clocks clkA] -fall_to [get_pins rX/D]";
    "set_false_path -setup -to [get_pins rX/D]";
    "set_false_path -hold -to [get_pins rX/D]";
  ]

let writer_cases =
  [
    tc "write/parse round trip over corpus" (fun () ->
        List.iter
          (fun src ->
            let cmd = parse1 src in
            let written = Writer.write_command cmd in
            let cmd2 = parse1 written in
            if cmd <> cmd2 then
              Alcotest.failf "round trip failed for %s ->\n  %s" src written)
          corpus);
    tc "write/parse twice is stable" (fun () ->
        List.iter
          (fun src ->
            let w1 = Writer.write_command (parse1 src) in
            let w2 = Writer.write_command (parse1 w1) in
            check Alcotest.string "fixpoint" w1 w2)
          corpus);
    tc "float formatting survives" (fun () ->
        let cmd = parse1 "set_max_delay 0.123456 -to x" in
        match parse1 (Writer.write_command cmd) with
        | Ast.Set_max_delay b -> check (Alcotest.float 1e-9) "v" 0.123456 b.Ast.db_value
        | _ -> Alcotest.fail "wrong");
    tc "write_commands adds header" (fun () ->
        let out = Writer.write_commands ~header:"hello" [ parse1 "set_case_analysis 0 a" ] in
        check Alcotest.bool "header" true (String.length out > 0 && out.[0] = '#'));
  ]

(* ------------------------------------------------------------------ *)
(* Resolve and Mode (against the paper circuit)                        *)

let circuit = Mm_workload.Paper_circuit.build

let resolve_ok ?(name = "t") src =
  let d = circuit () in
  let r = Resolve.mode_of_string d ~name src in
  d, r

let resolve_cases =
  [
    tc "glob expands ports" (fun () ->
        let _d, r = resolve_ok "create_clock -name c -period 1 [get_ports clk*]" in
        check Alcotest.(list string) "warnings" [] (Resolve.warnings r);
        match r.Resolve.mode.Mode.clocks with
        | [ c ] -> check Alcotest.int "four sources" 4 (List.length c.Mode.sources)
        | _ -> Alcotest.fail "one clock expected");
    tc "unnamed clock takes source name" (fun () ->
        let _d, r = resolve_ok "create_clock -period 1 [get_ports clk1]" in
        check Alcotest.(list string) "clock names" [ "clk1" ]
          (Mode.clock_names r.Resolve.mode));
    tc "clock without add displaces same-source clock" (fun () ->
        let _d, r =
          resolve_ok
            "create_clock -name a -period 1 [get_ports clk1]\n\
             create_clock -name b -period 2 [get_ports clk1]"
        in
        check Alcotest.(list string) "only b" [ "b" ] (Mode.clock_names r.Resolve.mode);
        check Alcotest.bool "warned" true (Resolve.warnings r <> []));
    tc "clock with add keeps both" (fun () ->
        let _d, r =
          resolve_ok
            "create_clock -name a -period 1 [get_ports clk1]\n\
             create_clock -name b -period 2 -add [get_ports clk1]"
        in
        check Alcotest.(list string) "both" [ "a"; "b" ] (Mode.clock_names r.Resolve.mode));
    tc "generated clock inherits scaled period" (fun () ->
        let _d, r =
          resolve_ok
            "create_clock -name m -period 4 [get_ports clk1]\n\
             create_generated_clock -name g -source [get_ports clk1] -divide_by 2 \
             [get_pins mux1/Z]"
        in
        match Mode.find_clock r.Resolve.mode "g" with
        | Some g -> check (Alcotest.float 0.) "period" 8. g.Mode.period
        | None -> Alcotest.fail "no generated clock");
    tc "unresolved object warns" (fun () ->
        let _d, r = resolve_ok "set_case_analysis 0 nosuchpin" in
        check Alcotest.bool "warned" true (Resolve.warnings r <> []));
    tc "conflicting case in one mode warns" (fun () ->
        let _d, r = resolve_ok "set_case_analysis 0 sel1\nset_case_analysis 1 sel1" in
        check Alcotest.bool "warned" true (Resolve.warnings r <> []);
        check Alcotest.int "kept first" 1 (List.length r.Resolve.mode.Mode.cases));
    tc "exceptions resolve points" (fun () ->
        let d, r =
          resolve_ok
            "create_clock -name c -period 1 [get_ports clk1]\n\
             set_false_path -from [get_clocks c] -through inv1/Z -to [get_pins rX/D]"
        in
        match r.Resolve.mode.Mode.exceptions with
        | [ e ] ->
          check Alcotest.bool "from clock" true (e.Mode.exc_from = Some [ Mode.P_clock "c" ]);
          check Alcotest.bool "through" true
            (e.Mode.exc_through = [ [ Design.pin_of_name_exn d "inv1/Z" ] ]);
          check Alcotest.bool "to pin" true
            (e.Mode.exc_to = Some [ Mode.P_pin (Design.pin_of_name_exn d "rX/D") ])
        | _ -> Alcotest.fail "one exception expected");
    tc "all_registers -clock_pins yields CP pins" (fun () ->
        let d, r =
          resolve_ok
            "create_clock -name c -period 1 [get_ports clk1]\n\
             set_false_path -from [all_registers -clock_pins]"
        in
        match r.Resolve.mode.Mode.exceptions with
        | [ { Mode.exc_from = Some points; _ } ] ->
          check Alcotest.int "six CPs" 6 (List.length points);
          ignore d
        | _ -> Alcotest.fail "expected");
    tc "io delay direction and clock recorded" (fun () ->
        let _d, r =
          resolve_ok
            "create_clock -name c -period 1 [get_ports clk1]\n\
             set_input_delay 0.5 -clock c [get_ports in1]\n\
             set_output_delay 0.7 -clock c [get_ports out1]"
        in
        check Alcotest.int "two" 2 (List.length r.Resolve.mode.Mode.io_delays);
        check Alcotest.int "one input" 1
          (List.length
             (List.filter (fun d -> d.Mode.iod_input) r.Resolve.mode.Mode.io_delays)));
    tc "io delay unknown clock warns" (fun () ->
        let _d, r = resolve_ok "set_input_delay 0.5 -clock nope [get_ports in1]" in
        check Alcotest.bool "warned" true (Resolve.warnings r <> []));
    tc "clock attrs accumulate" (fun () ->
        let _d, r =
          resolve_ok
            "create_clock -name c -period 1 [get_ports clk1]\n\
             set_clock_latency -source -min 0.5 [get_clocks c]\n\
             set_clock_latency -source -max 0.8 [get_clocks c]\n\
             set_clock_uncertainty -setup 0.1 [get_clocks c]\n\
             set_propagated_clock [get_clocks c]"
        in
        let attr = Mode.attr_of_clock r.Resolve.mode "c" in
        check Alcotest.bool "min" true (attr.Mode.src_latency_min = Some 0.5);
        check Alcotest.bool "max" true (attr.Mode.src_latency_max = Some 0.8);
        check Alcotest.bool "unc" true (attr.Mode.uncertainty_setup = Some 0.1);
        check Alcotest.bool "prop" true attr.Mode.propagated);
  ]

let mode_cases =
  [
    tc "clock_key equal for identical clocks" (fun () ->
        let d = circuit () in
        let m1 =
          (Resolve.mode_of_string d ~name:"a" "create_clock -name x -period 10 [get_ports clk1]").Resolve.mode
        and m2 =
          (Resolve.mode_of_string d ~name:"b" "create_clock -name y -period 10 [get_ports clk1]").Resolve.mode
        in
        let c1 = List.hd m1.Mode.clocks and c2 = List.hd m2.Mode.clocks in
        check Alcotest.string "same key" (Mode.clock_key c1) (Mode.clock_key c2));
    tc "clock_key differs on waveform" (fun () ->
        let d = circuit () in
        let m1 =
          (Resolve.mode_of_string d ~name:"a"
             "create_clock -name x -period 10 [get_ports clk1]").Resolve.mode
        and m2 =
          (Resolve.mode_of_string d ~name:"b"
             "create_clock -name x -period 10 -waveform {5 10} [get_ports clk1]").Resolve.mode
        in
        check Alcotest.bool "differ" true
          (Mode.clock_key (List.hd m1.Mode.clocks)
          <> Mode.clock_key (List.hd m2.Mode.clocks)));
    tc "to_commands resolves back to equal mode" (fun () ->
        let d = circuit () in
        let src =
          "create_clock -name c -period 2 [get_ports clk1]\n\
           set_clock_uncertainty -setup 0.1 [get_clocks c]\n\
           set_input_delay 0.5 -clock c [get_ports in1]\n\
           set_case_analysis 0 sel1\n\
           set_false_path -from [get_clocks c] -to [get_pins rX/D]\n\
           set_load 0.01 [get_ports out1]"
        in
        let m = (Resolve.mode_of_string d ~name:"m" src).Resolve.mode in
        let r2 = Resolve.mode d ~name:"m" (Mode.to_commands m) in
        check Alcotest.(list string) "no warnings" [] (Resolve.warnings r2);
        let m2 = r2.Resolve.mode in
        check Alcotest.(list string) "clocks" (Mode.clock_names m) (Mode.clock_names m2);
        check Alcotest.int "cases" (List.length m.Mode.cases) (List.length m2.Mode.cases);
        check Alcotest.int "io" (List.length m.Mode.io_delays) (List.length m2.Mode.io_delays);
        check Alcotest.bool "exceptions" true
          (List.for_all2 Mode.exc_equal m.Mode.exceptions m2.Mode.exceptions);
        check Alcotest.int "envs" (List.length m.Mode.envs) (List.length m2.Mode.envs));
    tc "exc_equal ignores point order" (fun () ->
        let e pins =
          Mode.exc ~from_:(List.map (fun p -> Mode.P_pin p) pins) Mode.False_path
        in
        check Alcotest.bool "eq" true (Mode.exc_equal (e [ 1; 2 ]) (e [ 2; 1 ]));
        check Alcotest.bool "neq" false (Mode.exc_equal (e [ 1 ]) (e [ 2 ])));
    tc "io_delay_equal distinguishes minmax" (fun () ->
        let d v mm =
          {
            Mode.iod_input = true;
            iod_pin = 0;
            iod_clock = Some "c";
            iod_clock_fall = false;
            iod_minmax = mm;
            iod_value = v;
            iod_add = false;
          }
        in
        check Alcotest.bool "eq" true (Mode.io_delay_equal (d 1. Ast.Both) (d 1. Ast.Both));
        check Alcotest.bool "neq mm" false (Mode.io_delay_equal (d 1. Ast.Min) (d 1. Ast.Both));
        check Alcotest.bool "neq v" false (Mode.io_delay_equal (d 1. Ast.Both) (d 2. Ast.Both)));
  ]

(* Property: parse(write(parse src)) = parse src over random picks from
   a seeded corpus expansion. *)
let roundtrip_prop =
  let gen =
    QCheck2.Gen.(
      let* name = oneofl [ "a"; "bb"; "clk_1" ] in
      let* period = map (fun i -> float_of_int i /. 4.) (1 -- 100) in
      let* add = bool in
      let* wf = opt (pair (float_range 0. 5.) (float_range 5. 10.)) in
      return
        (Ast.Create_clock
           {
             Ast.cc_name = Some name;
             period;
             waveform = wf;
             add;
             sources = [ Ast.Get_ports [ "p1" ] ];
             comment = None;
           }))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"create_clock write/parse round trip" ~count:500 gen
       (fun cmd ->
         match Parser.parse_string (Writer.write_command cmd) with
         | [ cmd2 ] -> cmd = cmd2
         | _ -> false))

(* Full-mode round trip over the workload generator's SDC: resolve,
   serialise with Mode.to_commands, re-resolve, and compare the
   semantic summaries. *)
let full_mode_roundtrip_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"generated modes round-trip via to_commands"
       ~count:12
       QCheck2.Gen.(pair (int_range 1 5000) (int_range 0 3))
       (fun (seed, index) ->
         let design, info =
           Mm_workload.Gen_design.generate
             {
               Mm_workload.Gen_design.default_params with
               Mm_workload.Gen_design.seed;
               regs_per_domain = 16;
               stages = 2;
               combo_depth = 2;
             }
         in
         let suite =
           {
             Mm_workload.Gen_modes.sp_seed = seed + 7;
             families = [ 4 ];
             base_period = 2.0;
             scan_family = false;
           }
         in
         let src =
           Mm_workload.Gen_modes.sdc_of_mode_spec info suite ~family:0 ~index
         in
         let m = (Resolve.mode_of_string design ~name:"m" src).Resolve.mode in
         let r2 = Resolve.mode design ~name:"m" (Mode.to_commands m) in
         Resolve.warnings r2 = []
         &&
         let m2 = r2.Resolve.mode in
         Mode.clock_names m = Mode.clock_names m2
         && List.length m.Mode.io_delays = List.length m2.Mode.io_delays
         && List.sort compare m.Mode.cases = List.sort compare m2.Mode.cases
         && List.length m.Mode.exceptions = List.length m2.Mode.exceptions
         && List.for_all2 Mode.exc_equal m.Mode.exceptions m2.Mode.exceptions
         && List.length m.Mode.drcs = List.length m2.Mode.drcs
         && List.length m.Mode.groups = List.length m2.Mode.groups))

let () =
  Alcotest.run "mm_sdc"
    [
      "lexer", lexer_cases;
      "parser", parser_cases;
      "recover", recover_cases;
      "robust-resolve", robust_resolve_cases;
      "writer", writer_cases @ [ roundtrip_prop ];
      "resolve", resolve_cases;
      "mode", mode_cases @ [ full_mode_roundtrip_prop ];
    ]
