module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Resolve = Mm_sdc.Resolve
module Prng = Mm_util.Prng

type suite_params = {
  sp_seed : int;
  families : int list;
  base_period : float;
  scan_family : bool;
}

let buf = Buffer.create 1024

let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt

(* A deterministic per-(family, index, salt) coin. *)
let coin sp ~family ~index ~salt =
  let rng = Prng.create (sp.sp_seed + (family * 7919) + (index * 104729) + salt) in
  Prng.bool rng

let is_scan_family (info : Gen_design.info) sp ~family =
  sp.scan_family
  && info.Gen_design.scan_clk_port <> None
  && family = List.length sp.families - 1
  && List.length sp.families > 1

let sdc_of_mode_spec (info : Gen_design.info) sp ~family ~index =
  Buffer.clear buf;
  let f = float_of_int family in
  let scan_mode = is_scan_family info sp ~family in
  if scan_mode then begin
    (* Scan shift: one slow clock on the scan port, scan enable on. *)
    (match info.Gen_design.scan_clk_port with
    | Some sc ->
      line "create_clock -name scan_shift -period %g [get_ports %s]"
        (sp.base_period *. 10.) sc
    | None -> assert false);
    (match info.Gen_design.scan_en_port with
    | Some se -> line "set_case_analysis 1 [get_ports %s]" se
    | None -> ());
    (* Clock muxes select the scan clock. *)
    List.iter
      (fun (dm : Gen_design.domain) ->
        match dm.Gen_design.dom_mux_sel with
        | Some sel -> line "set_case_analysis 1 [get_ports %s]" sel
        | None -> ())
      info.Gen_design.domains;
    (* Relaxed shift-path requirement, identical across the family. *)
    line "set_multicycle_path 2 -from [get_clocks scan_shift]"
  end
  else begin
    (* Functional clocks, one per domain; periods are family-wide. *)
    List.iteri
      (fun di port ->
        line "create_clock -name fclk_%d -period %g [get_ports %s]" di
          (sp.base_period *. (1. +. (0.25 *. float_of_int di)))
          port)
      info.Gen_design.clock_ports;
    (match info.Gen_design.scan_en_port with
    | Some se -> line "set_case_analysis 0 [get_ports %s]" se
    | None -> ());
    (* Clock mux selects: functional clock leg; the value flips with
       the mode index inside the family, planting the conflicting-case
       pattern of Constraint Set 3. *)
    List.iter
      (fun (dm : Gen_design.domain) ->
        match dm.Gen_design.dom_mux_sel with
        | Some sel ->
          line "set_case_analysis %d [get_ports %s]" (index mod 2) sel
        | None -> ())
      info.Gen_design.domains;
    (* Non-mux config pins: a mode-dependent subset gets case values. *)
    let mux_sels =
      List.filter_map (fun dm -> dm.Gen_design.dom_mux_sel) info.Gen_design.domains
    in
    List.iteri
      (fun ci cfg ->
        if not (List.mem cfg mux_sels) then begin
          if coin sp ~family ~index ~salt:(100 + ci) then
            line "set_case_analysis %d [get_ports %s]"
              (if coin sp ~family ~index ~salt:(200 + ci) then 1 else 0)
              cfg
        end)
      info.Gen_design.cfg_ports;
    (* IO delays relative to the domain clocks. *)
    List.iteri
      (fun i din ->
        let di = i mod List.length info.Gen_design.clock_ports in
        line "set_input_delay %g -clock fclk_%d [get_ports %s]"
          (0.2 +. (0.05 *. float_of_int (i mod 3)))
          di din)
      info.Gen_design.in_ports;
    List.iteri
      (fun i dout ->
        let di = i mod List.length info.Gen_design.clock_ports in
        line "set_output_delay %g -clock fclk_%d [get_ports %s]"
          (0.3 +. (0.05 *. float_of_int (i mod 2)))
          di dout)
      info.Gen_design.out_ports;
    (* Family-common cross-domain relaxation. *)
    if List.length info.Gen_design.clock_ports > 1 then begin
      line "set_multicycle_path 2 -from [get_clocks fclk_0] -to [get_clocks fclk_1]";
      line "set_clock_groups -asynchronous -name dom01 -group [get_clocks fclk_0] -group [get_clocks fclk_1]"
        |> ignore
    end;
    (* Mode-local false paths: droppable, exercised by refinement. *)
    if info.Gen_design.out_ports <> [] then begin
      let n = List.length info.Gen_design.out_ports in
      let j = index mod n in
      if coin sp ~family ~index ~salt:300 then
        line "set_false_path -to [get_ports %s]"
          (List.nth info.Gen_design.out_ports j)
    end;
    (* Family-common clock uncertainty; the value is family-specific
       and far outside tolerance across families, making distinct
       families non-mergeable (Table 5 structure). *)
    line "set_clock_uncertainty -setup %g [get_clocks fclk_0]"
      (0.05 *. (1. +. f));
    (* A design-rule limit on the first register output of each domain,
       identical across the family (merges to the same value). *)
    List.iteri
      (fun di _ -> line "set_max_capacitance 0.5 [get_pins r_%d_0_0/Q]" di)
      info.Gen_design.clock_ports
  end;
  (* Family-specific output load: the hard cross-family conflict. *)
  (match info.Gen_design.out_ports with
  | dout :: _ -> line "set_load %g [get_ports %s]" (0.01 *. (1. +. (0.5 *. f))) dout
  | [] -> ());
  Buffer.contents buf

let generate design info sp =
  List.concat
    (List.mapi
       (fun family n_modes ->
         List.init n_modes (fun index ->
             let name = Printf.sprintf "m%d_%d" family index in
             let src = sdc_of_mode_spec info sp ~family ~index in
             let r = Resolve.mode_of_string design ~name src in
             match Resolve.warnings r with
             | [] -> r.Resolve.mode
             | w ->
               failwith
                 (Printf.sprintf "gen_modes %s: %s" name (String.concat "; " w))))
       sp.families)
