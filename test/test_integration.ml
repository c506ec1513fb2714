(* End-to-end integration tests: generated workloads through the full
   merge flow, file round trips through the CLI-facing formats, STA
   conformity and randomized whole-flow soundness. *)
module Design = Mm_netlist.Design
module Netlist_io = Mm_netlist.Netlist_io
module Mode = Mm_sdc.Mode
module Resolve = Mm_sdc.Resolve
module Sta = Mm_timing.Sta
module Merge_flow = Mm_core.Merge_flow
module Equiv = Mm_core.Equiv
module Prelim = Mm_core.Prelim
module Refine = Mm_core.Refine
module Gen_design = Mm_workload.Gen_design
module Gen_modes = Mm_workload.Gen_modes
module Presets = Mm_workload.Presets

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let flow_cases =
  [
    tc "tiny preset: 4 modes -> 2 validated supersets" (fun () ->
        let design, _info, modes = Presets.build Presets.tiny in
        let r = Merge_flow.run modes in
        check Alcotest.int "merged" 2 r.Merge_flow.n_merged;
        List.iter
          (fun (g : Merge_flow.group) ->
            match g.Merge_flow.grp_equiv with
            | Some e -> check Alcotest.bool "equivalent" true e.Equiv.equivalent
            | None -> Alcotest.fail "expected merged groups")
          r.Merge_flow.groups;
        (* STA conformity of worst slacks. *)
        let ind = List.map (fun m -> Sta.analyze design m) modes in
        let mrg = List.map (fun m -> Sta.analyze design m) (Merge_flow.merged_modes r) in
        let conf = Sta.conformity ~individual:ind ~merged:mrg ~tolerance_frac:0.01 in
        check Alcotest.bool "conformity >= 99" true (conf >= 99.));
    tc "merged superset mode times at least the union of endpoints" (fun () ->
        let design, _info, modes = Presets.build Presets.tiny in
        let r = Merge_flow.run modes in
        let timed reports =
          List.concat_map
            (fun rep -> List.map fst (Sta.worst_setup_by_endpoint rep))
            reports
          |> List.sort_uniq compare
        in
        let ind = timed (List.map (fun m -> Sta.analyze design m) modes) in
        let mrg =
          timed (List.map (fun m -> Sta.analyze design m) (Merge_flow.merged_modes r))
        in
        List.iter
          (fun ep ->
            check Alcotest.bool
              (Printf.sprintf "endpoint %s kept" (Design.pin_name design ep))
              true (List.mem ep mrg))
          ind);
    tc "merged mode SDC round-trips through writer and parser" (fun () ->
        let design, _info, modes = Presets.build Presets.tiny in
        let r = Merge_flow.run modes in
        List.iter
          (fun (m : Mode.t) ->
            let sdc = Mode.to_sdc m in
            let rr = Resolve.mode_of_string design ~name:m.Mode.mode_name sdc in
            check Alcotest.(list string) "no warnings" [] (Resolve.warnings rr);
            let m2 = rr.Resolve.mode in
            check Alcotest.(list string) "clocks" (Mode.clock_names m)
              (Mode.clock_names m2);
            check Alcotest.int "exceptions"
              (List.length m.Mode.exceptions)
              (List.length m2.Mode.exceptions))
          (Merge_flow.merged_modes r));
    tc "full flow from files (netlist + SDC on disk)" (fun () ->
        let dir = Filename.temp_file "mm_it" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let design, info = Gen_design.generate { Gen_design.default_params with seed = 55 } in
        let npath = Filename.concat dir "d.nl" in
        Netlist_io.write_file npath design;
        let suite =
          { Gen_modes.sp_seed = 56; families = [ 2; 1 ]; base_period = 2.0; scan_family = false }
        in
        let paths =
          List.concat
            (List.mapi
               (fun family n ->
                 List.init n (fun index ->
                     let p = Filename.concat dir (Printf.sprintf "m%d_%d.sdc" family index) in
                     let oc = open_out p in
                     output_string oc (Gen_modes.sdc_of_mode_spec info suite ~family ~index);
                     close_out oc;
                     p))
               suite.Gen_modes.families)
        in
        let design2 = Netlist_io.read_file npath in
        let l =
          Merge_flow.load_files ~policy:Merge_flow.Strict ~design:design2 paths
        in
        check Alcotest.(list string) "no load diagnostics" []
          (List.map Mm_util.Diag.to_string l.Merge_flow.l_diags);
        let r = Merge_flow.run l.Merge_flow.l_modes in
        check Alcotest.int "3 -> 2" 2 r.Merge_flow.n_merged);
  ]

(* Randomized whole-flow soundness on small generated workloads. *)
let random_flow_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random workload flows are optimism-free" ~count:6
       QCheck2.Gen.(int_range 1 10_000)
       (fun seed ->
         let params =
           {
             Gen_design.default_params with
             Gen_design.seed;
             regs_per_domain = 16 + (seed mod 17);
             stages = 2 + (seed mod 3);
             combo_depth = 1 + (seed mod 3);
             n_config_pins = 2 + (seed mod 4);
           }
         in
         let design, info = Gen_design.generate params in
         let suite =
           {
             Gen_modes.sp_seed = seed * 13;
             families = [ 2 + (seed mod 2); 2 ];
             base_period = 1.5;
             scan_family = seed mod 2 = 0;
           }
         in
         let modes = Gen_modes.generate design info suite in
         let r = Merge_flow.run modes in
         List.for_all
           (fun (g : Merge_flow.group) ->
             match g.Merge_flow.grp_equiv with
             | Some e -> e.Equiv.equivalent
             | None -> true)
           r.Merge_flow.groups))

(* Sign-off safety at the STA level: on every endpoint the merged
   mode's worst slack never exceeds (is never more optimistic than) the
   worst individual slack, and every individually-checked endpoint stays
   checked. *)
let sta_never_optimistic_case =
  tc "merged STA is never optimistic per endpoint" (fun () ->
      let design, _info, modes = Presets.build Presets.tiny in
      let r = Merge_flow.run modes in
      let ind = Sta.merge_worst (List.map (fun m -> Sta.analyze design m) modes) in
      let mrg =
        Sta.merge_worst
          (List.map (fun m -> Sta.analyze design m) (Merge_flow.merged_modes r))
      in
      Hashtbl.iter
        (fun pin (slack_ind, _) ->
          match Hashtbl.find_opt mrg pin with
          | None ->
            Alcotest.failf "endpoint %s lost its check"
              (Design.pin_name design pin)
          | Some (slack_mrg, _) ->
            check Alcotest.bool
              (Printf.sprintf "%s not optimistic (%f vs %f)"
                 (Design.pin_name design pin) slack_mrg slack_ind)
              true
              (slack_mrg <= slack_ind +. 1e-9))
        ind)

let idempotence_case =
  tc "re-merging merged modes is a fixpoint" (fun () ->
      let _design, _info, modes = Presets.build Presets.tiny in
      let r1 = Merge_flow.run modes in
      let r2 = Merge_flow.run (Merge_flow.merged_modes r1) in
      check Alcotest.int "no further merging across families"
        r1.Merge_flow.n_merged r2.Merge_flow.n_merged)

(* ------------------------------------------------------------------ *)
(* Per-mode quarantine: a corrupt input isolates to its own mode.      *)

module Diag = Mm_util.Diag

let tiny_sources () =
  let design, _info, modes = Presets.build Presets.tiny in
  let sources =
    List.map
      (fun (m : Mode.t) ->
        {
          Merge_flow.src_name = m.Mode.mode_name;
          src_file = None;
          src_text = Mode.to_sdc m;
        })
      modes
  in
  design, sources

let corrupt_text = "create_clock -period bogus -name c [get_ports clk0]\n[{"

let quarantine_cases =
  [
    tc "permissive: corrupt source quarantined, other N-1 modes merge"
      (fun () ->
        let design, sources = tiny_sources () in
        let bad = List.hd sources in
        let sources =
          { bad with Merge_flow.src_text = corrupt_text } :: List.tl sources
        in
        let r =
          Merge_flow.run_sources ~policy:Merge_flow.Permissive ~design sources
        in
        check Alcotest.int "one quarantined" 1 (List.length r.Merge_flow.quarantined);
        let q = List.hd r.Merge_flow.quarantined in
        check Alcotest.string "quarantined name" bad.Merge_flow.src_name
          q.Merge_flow.q_name;
        check Alcotest.bool "load stage" true (q.Merge_flow.q_stage = Merge_flow.Load);
        check Alcotest.bool "has located diagnostic" true
          (List.exists (fun d -> d.Diag.dloc <> None) q.Merge_flow.q_diags);
        check Alcotest.int "survivors" 3 r.Merge_flow.n_individual;
        (* The corrupt mode's family partner degrades to a singleton;
           the untouched family still merges. *)
        check Alcotest.int "groups" 2 r.Merge_flow.n_merged;
        List.iter
          (fun (g : Merge_flow.group) ->
            match g.Merge_flow.grp_equiv with
            | Some e -> check Alcotest.bool "equivalent" true e.Equiv.equivalent
            | None -> ())
          r.Merge_flow.groups);
    tc "strict: the same corrupt source fails fast" (fun () ->
        let design, sources = tiny_sources () in
        let bad = List.hd sources in
        let sources =
          { bad with Merge_flow.src_text = corrupt_text } :: List.tl sources
        in
        match Merge_flow.run_sources ~policy:Merge_flow.Strict ~design sources with
        | _ -> Alcotest.fail "expected a parse error"
        | exception Mm_sdc.Parser.Error _ -> ()
        | exception Mm_sdc.Lexer.Error _ -> ());
    tc "permissive: unreadable file quarantined with io.read" (fun () ->
        let design, sources = tiny_sources () in
        let dir = Filename.temp_file "mm_quarantine" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let paths =
          List.map
            (fun s ->
              let p = Filename.concat dir (s.Merge_flow.src_name ^ ".sdc") in
              let oc = open_out p in
              output_string oc s.Merge_flow.src_text;
              close_out oc;
              p)
            sources
        in
        let missing = Filename.concat dir "ghost.sdc" in
        let r =
          Merge_flow.run_files ~policy:Merge_flow.Permissive ~design
            (missing :: paths)
        in
        check Alcotest.int "one quarantined" 1 (List.length r.Merge_flow.quarantined);
        let q = List.hd r.Merge_flow.quarantined in
        check Alcotest.string "name" "ghost" q.Merge_flow.q_name;
        check Alcotest.bool "io.read code" true
          (List.exists (fun d -> d.Diag.code = "io.read") q.Merge_flow.q_diags);
        check Alcotest.int "all real modes merged" 2 r.Merge_flow.n_merged;
        List.iter Sys.remove paths;
        Unix.rmdir dir);
    tc "strict: unreadable file raises Load_error" (fun () ->
        (* Not Sys_error itself: the refusal carries a located diagnostic. *)
        let design, _ = tiny_sources () in
        match
          Merge_flow.run_files ~policy:Merge_flow.Strict ~design
            [ "/nonexistent/ghost.sdc" ]
        with
        | _ -> Alcotest.fail "expected Load_error"
        | exception Merge_flow.Load_error d ->
          check Alcotest.string "located fatal io.read"
            "/nonexistent/ghost.sdc: fatal[io.read]: No such file or directory"
            (Diag.to_string d));
    tc "a directory given as an SDC file is named as one" (fun () ->
        let design, sources = tiny_sources () in
        let dir = Filename.temp_file "mm_dir_arg" "" in
        Sys.remove dir;
        Unix.mkdir dir 0o755;
        let says_directory severity =
          Printf.sprintf "%s: %s[io.read]: Is a directory" dir severity
        in
        (match Merge_flow.run_files ~policy:Merge_flow.Strict ~design [ dir ] with
        | _ -> Alcotest.fail "strict: expected Load_error"
        | exception Merge_flow.Load_error d ->
          check Alcotest.string "strict" (says_directory "fatal")
            (Diag.to_string d));
        let path = Filename.concat dir "m.sdc" in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (List.hd sources).Merge_flow.src_text);
        let r =
          Merge_flow.run_files ~policy:Merge_flow.Permissive ~design [ dir; path ]
        in
        let quarantined_dir (qs : Merge_flow.quarantined list) =
          match qs with
          | [ q ] ->
            check Alcotest.string "quarantined mode" (Filename.basename dir)
              q.Merge_flow.q_name;
            check Alcotest.(list string) "permissive: io.read naming the directory"
              [ says_directory "error" ]
              (List.map Diag.to_string q.Merge_flow.q_diags)
          | qs -> Alcotest.failf "%d quarantined" (List.length qs)
        in
        quarantined_dir r.Merge_flow.quarantined;
        check Alcotest.int "the file merged" 1 r.Merge_flow.n_merged;
        let l =
          Merge_flow.load_files ~policy:Merge_flow.Permissive ~design [ dir; path ]
        in
        quarantined_dir l.Merge_flow.l_quarantined;
        check Alcotest.(list string) "load_files: the file loaded" [ "m" ]
          (List.map (fun (m : Mode.t) -> m.Mode.mode_name) l.Merge_flow.l_modes);
        Sys.remove path;
        Unix.rmdir dir);
    tc "permissive: a taken mode name is quarantined at load" (fun () ->
        let design, sources = tiny_sources () in
        let first = List.hd sources and other = List.nth sources 1 in
        let on_disk dir (s : Merge_flow.source) =
          { s with Merge_flow.src_file = Some (dir ^ "/m.sdc") }
        in
        let clean = on_disk "x" first :: List.tl sources in
        (* [other]'s constraints under [first]'s name, from another
           directory. *)
        let dup =
          { (on_disk "y" other) with Merge_flow.src_name = first.Merge_flow.src_name }
        in
        let run srcs =
          Merge_flow.run_sources ~policy:Merge_flow.Permissive ~design srcs
        in
        let r = run (clean @ [ dup ]) and r0 = run clean in
        check Alcotest.int "one quarantined" 1 (List.length r.Merge_flow.quarantined);
        let q = List.hd r.Merge_flow.quarantined in
        check Alcotest.string "quarantined name" first.Merge_flow.src_name
          q.Merge_flow.q_name;
        check Alcotest.bool "load stage" true (q.Merge_flow.q_stage = Merge_flow.Load);
        (match q.Merge_flow.q_diags with
        | [ d ] ->
          check Alcotest.string "code" "merge.duplicate-mode" d.Diag.code;
          check Alcotest.bool "error severity" true (d.Diag.severity = Diag.Error);
          check Alcotest.(option string) "located at the later source"
            (Some "y/m.sdc")
            (Option.map (fun l -> l.Diag.file) d.Diag.dloc);
          check Alcotest.bool "names the earlier source" true
            (Str_probe.contains d.Diag.message "x/m.sdc")
        | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds));
        check Alcotest.(list (pair string string)) "merged as without the duplicate"
          (Merge_flow.merged_files r0) (Merge_flow.merged_files r));
    tc "strict: a taken mode name fails fast" (fun () ->
        let design, sources = tiny_sources () in
        let first = List.hd sources in
        let dup =
          { (List.nth sources 1) with Merge_flow.src_name = first.Merge_flow.src_name }
        in
        match
          Merge_flow.run_sources ~policy:Merge_flow.Strict ~design (sources @ [ dup ])
        with
        | _ -> Alcotest.fail "expected Load_error"
        | exception Merge_flow.Load_error d ->
          check Alcotest.string "code" "merge.duplicate-mode" d.Diag.code;
          check Alcotest.bool "fatal" true (d.Diag.severity = Diag.Fatal));
    tc "permissive equals strict on clean inputs" (fun () ->
        let design, sources = tiny_sources () in
        let rp =
          Merge_flow.run_sources ~policy:Merge_flow.Permissive ~design sources
        in
        let rs =
          Merge_flow.run_sources ~policy:Merge_flow.Strict ~design sources
        in
        check Alcotest.int "same merged count" rs.Merge_flow.n_merged
          rp.Merge_flow.n_merged;
        check Alcotest.int "nothing quarantined" 0
          (List.length rp.Merge_flow.quarantined);
        check Alcotest.int "nothing degraded" 0 (List.length rp.Merge_flow.degraded));
  ]

let () =
  Alcotest.run "integration"
    [
      "flow",
      flow_cases @ [ sta_never_optimistic_case; idempotence_case; random_flow_prop ];
      "quarantine", quarantine_cases;
    ]
