(* Scan/functional mode merging: shows which modes can merge and why
   the scan-shift family stays separate, then prints the merged SDC of
   the functional superset mode.

   dune exec examples/scan_merge.exe *)

module Mode = Mm_sdc.Mode
module Mergeability = Mm_core.Mergeability
module Gen_design = Mm_workload.Gen_design
module Gen_modes = Mm_workload.Gen_modes

let () =
  let params =
    {
      Gen_design.default_params with
      Gen_design.seed = 5;
      n_domains = 2;
      regs_per_domain = 40;
      stages = 3;
      combo_depth = 2;
      n_clock_muxes = 1;
    }
  in
  let design, info = Gen_design.generate params in
  let suite =
    {
      Gen_modes.sp_seed = 6;
      families = [ 3; 2 ];
      base_period = 2.0;
      scan_family = true;
    }
  in
  let modes = Gen_modes.generate design info suite in
  Printf.printf "Modes and their constraints:\n";
  List.iteri
    (fun i (m : Mode.t) ->
      Printf.printf "  %-6s %d clocks, %d cases, %d exceptions\n"
        m.Mode.mode_name
        (List.length m.Mode.clocks)
        (List.length m.Mode.cases)
        (List.length m.Mode.exceptions);
      ignore i)
    modes;

  let merg = Mergeability.analyze modes in
  print_string (Mm_core.Report.mergeability_text merg);

  (* Explain a non-mergeable pair. *)
  Hashtbl.iter
    (fun (i, j) _ ->
      let reasons = Mergeability.reasons merg (i, j) in
      Printf.printf "\n%s and %s cannot merge because:\n"
        merg.Mergeability.mode_names.(i)
        merg.Mergeability.mode_names.(j);
      List.iter (Printf.printf "  - %s\n") (List.filteri (fun k _ -> k < 2) reasons))
    merg.Mergeability.pair_reasons;

  (* Merge the functional family and print its SDC. *)
  let cliques = Mergeability.clique_modes merg modes in
  match
    List.find_opt (fun clique -> List.length clique > 1) cliques
  with
  | None -> print_endline "no mergeable group found"
  | Some group ->
    let prelim = Mm_core.Prelim.merge ~name:"func_super" group in
    let refine = Mm_core.Refine.run ~prelim ~individual:group () in
    Printf.printf "\nMerged SDC for [%s]:\n%s\n"
      (String.concat ", " (List.map (fun (m : Mode.t) -> m.Mode.mode_name) group))
      (Mode.to_sdc refine.Mm_core.Refine.refined)
