(* Rename-and-scan conflicts: the conflict emission that
   [Mm_core.Prelim.merge] carried before [Mm_core.Conflict_key] replaced
   it with per-mode keys. It unions the clocks, renames every exception
   into the merged mode and compares renamed exceptions pairwise. Kept
   only as the differential oracle: the keys must give the same
   conflicts, string for string and in the same order. *)

module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Toler = Mm_util.Toler
module Context = Mm_timing.Context
module Clock_prop = Mm_timing.Clock_prop

(* 3.1.1: (mode, clock) -> merged clock name, and the merged clocks. *)
let union_clocks modes =
  let clock_map = Hashtbl.create 32 in
  let merged_clocks = ref [] in
  let by_key = Hashtbl.create 32 in
  let name_taken name =
    List.exists (fun c -> String.equal c.Mode.clk_name name) !merged_clocks
  in
  let unique_name base =
    if not (name_taken base) then base
    else begin
      let rec go i =
        let cand = Printf.sprintf "%s_%d" base i in
        if name_taken cand then go (i + 1) else cand
      in
      go 1
    end
  in
  List.iter
    (fun (m : Mode.t) ->
      List.iter
        (fun (c : Mode.clock) ->
          let key = Mode.clock_key c in
          match Hashtbl.find_opt by_key key with
          | Some merged_name ->
            Hashtbl.replace clock_map (m.Mode.mode_name, c.Mode.clk_name) merged_name
          | None ->
            let name = unique_name c.Mode.clk_name in
            merged_clocks := { c with Mode.clk_name = name } :: !merged_clocks;
            Hashtbl.replace by_key key name;
            Hashtbl.replace clock_map (m.Mode.mode_name, c.Mode.clk_name) name)
        m.Mode.clocks)
    modes;
  List.rev !merged_clocks, clock_map

(* 3.1.2 *)
let attr_conflicts ~tolerance conflicts modes clock_map merged_clocks =
  List.iter
    (fun (mc : Mode.clock) ->
      let contributions =
        List.concat_map
          (fun (m : Mode.t) ->
            List.filter_map
              (fun (c : Mode.clock) ->
                match Hashtbl.find_opt clock_map (m.Mode.mode_name, c.Mode.clk_name) with
                | Some name when String.equal name mc.Mode.clk_name ->
                  Some (Mode.attr_of_clock m c.Mode.clk_name)
                | Some _ | None -> None)
              m.Mode.clocks)
          modes
      in
      let field what get =
        match List.filter_map get contributions with
        | [] -> ()
        | v0 :: rest ->
          List.iter
            (fun v ->
              if not (Toler.within tolerance v0 v) then
                conflicts :=
                  Printf.sprintf "clock %s %s: values %g and %g beyond tolerance"
                    mc.Mode.clk_name what v0 v
                  :: !conflicts)
            rest
      in
      field "source latency min" (fun a -> a.Mode.src_latency_min);
      field "source latency max" (fun a -> a.Mode.src_latency_max);
      field "network latency min" (fun a -> a.Mode.net_latency_min);
      field "network latency max" (fun a -> a.Mode.net_latency_max);
      field "setup uncertainty" (fun a -> a.Mode.uncertainty_setup);
      field "hold uncertainty" (fun a -> a.Mode.uncertainty_hold);
      field "transition min" (fun a -> a.Mode.transition_min);
      field "transition max" (fun a -> a.Mode.transition_max))
    merged_clocks

(* 3.1.6: every (kind, pin, minmax) scanned in every mode's env list. *)
let env_conflicts ~tolerance conflicts modes =
  let design_name pin (m : Mode.t) = Design.pin_name m.Mode.design pin in
  let keys =
    List.concat_map
      (fun (m : Mode.t) ->
        List.map
          (fun (e : Mode.env_constraint) ->
            e.Mode.envc_kind, e.Mode.envc_pin, e.Mode.envc_minmax)
          m.Mode.envs)
      modes
    |> List.sort_uniq compare
  in
  List.iter
    (fun (kind, pin, minmax) ->
      let values =
        List.map
          (fun (m : Mode.t) ->
            ( m,
              List.filter_map
                (fun (e : Mode.env_constraint) ->
                  if e.Mode.envc_kind = kind && e.Mode.envc_pin = pin
                     && e.Mode.envc_minmax = minmax
                  then Some e.Mode.envc_value
                  else None)
                m.Mode.envs ))
          modes
      in
      let present = List.concat_map snd values in
      match present, values with
      | v0 :: _, (m0, _) :: _ ->
        if List.exists (fun (_, vs) -> vs = []) values then
          conflicts :=
            Printf.sprintf "environment constraint on %s missing in some modes"
              (design_name pin m0)
            :: !conflicts;
        List.iter
          (fun v ->
            if not (Toler.within tolerance v0 v) then
              conflicts :=
                Printf.sprintf
                  "environment constraint on %s: %g vs %g beyond tolerance"
                  (design_name pin m0) v0 v
                :: !conflicts)
          present
      | _ -> ())
    keys

(* 3.1.10 *)
let rename_exc_points clock_map mode_name (e : Mode.exc) =
  let rename_point = function
    | Mode.P_clock c -> (
      match Hashtbl.find_opt clock_map (mode_name, c) with
      | Some mc -> Mode.P_clock mc
      | None -> Mode.P_clock c)
    | (Mode.P_pin _ | Mode.P_inst _) as p -> p
  in
  {
    e with
    Mode.exc_from = Option.map (List.map rename_point) e.Mode.exc_from;
    exc_to = Option.map (List.map rename_point) e.Mode.exc_to;
  }

let pins_of_points design points =
  List.concat_map
    (function
      | Mode.P_pin p -> [ p ]
      | Mode.P_clock _ -> []
      | Mode.P_inst i -> (
        let cell = Design.inst_cell design i in
        match cell.Mm_netlist.Lib_cell.seq with
        | Some seq ->
          Design.inst_pin design i seq.Mm_netlist.Lib_cell.clock_pin
          :: List.map (Design.inst_pin design i) seq.Mm_netlist.Lib_cell.q_pins
        | None -> []))
    points

let unsafe_for_mode ctx_of clock_map restriction_clocks from_pins (m' : Mode.t) =
  let local_clocks =
    List.filter_map
      (fun (c : Mode.clock) ->
        match Hashtbl.find_opt clock_map (m'.Mode.mode_name, c.Mode.clk_name) with
        | Some mc when List.mem mc restriction_clocks -> Some c.Mode.clk_name
        | Some _ | None -> None)
      m'.Mode.clocks
  in
  if local_clocks = [] then false
  else if from_pins = [] then true
  else begin
    let ctx : Context.t = ctx_of m' in
    List.exists
      (fun pin ->
        List.exists
          (fun lc ->
            match Clock_prop.clock_index ctx.Context.clocks lc with
            | Some i -> Clock_prop.has_clock ctx.Context.clocks pin i
            | None -> false)
          local_clocks)
      from_pins
  end

let exception_conflicts ~ctx_of ~uniquify conflicts modes clock_map =
  let design =
    match modes with (m : Mode.t) :: _ -> m.Mode.design | [] -> assert false
  in
  let has (m : Mode.t) e =
    List.exists
      (fun e' -> Mode.exc_equal e (rename_exc_points clock_map m.Mode.mode_name e'))
      m.Mode.exceptions
  in
  List.iter
    (fun (m : Mode.t) ->
      List.iter
        (fun e ->
          let e = rename_exc_points clock_map m.Mode.mode_name e in
          if not (List.for_all (fun m' -> has m' e) modes) then begin
            let mode_clocks =
              List.filter_map
                (fun (c : Mode.clock) ->
                  Hashtbl.find_opt clock_map (m.Mode.mode_name, c.Mode.clk_name))
                m.Mode.clocks
              |> List.sort_uniq String.compare
            in
            let from_clocks =
              match e.Mode.exc_from with
              | Some pts ->
                List.filter_map
                  (function
                    | Mode.P_clock c -> Some c | Mode.P_pin _ | Mode.P_inst _ -> None)
                  pts
              | None -> []
            in
            let restriction = if from_clocks <> [] then from_clocks else mode_clocks in
            let from_pins =
              match e.Mode.exc_from with
              | Some pts -> pins_of_points design pts
              | None -> []
            in
            let others_lacking =
              List.filter
                (fun (m' : Mode.t) ->
                  (not (String.equal m'.Mode.mode_name m.Mode.mode_name))
                  && not (has m' e))
                modes
            in
            let unsafe =
              (not uniquify)
              || (e.Mode.exc_from_edge <> Mode.Any_edge
                 && from_pins <> []
                 && from_clocks = [])
              || List.exists
                   (unsafe_for_mode ctx_of clock_map restriction from_pins)
                   others_lacking
            in
            match e.Mode.exc_kind with
            | Mode.False_path -> ()
            | Mode.Multicycle _ | Mode.Min_delay _ | Mode.Max_delay _ ->
              if unsafe then
                conflicts :=
                  Printf.sprintf
                    "mode %s: non-false-path exception cannot be uniquified"
                    m.Mode.mode_name
                  :: !conflicts
          end)
        m.Mode.exceptions)
    modes

let conflicts ?(uniquify = true) ~tolerance ~ctx_of modes =
  let conflicts = ref [] in
  let merged_clocks, clock_map = union_clocks modes in
  attr_conflicts ~tolerance conflicts modes clock_map merged_clocks;
  env_conflicts ~tolerance conflicts modes;
  exception_conflicts ~ctx_of ~uniquify conflicts modes clock_map;
  List.rev !conflicts
