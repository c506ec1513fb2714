(* Dense constant propagation: the single topological sweep over every
   pin and arc that [Mm_timing.Const_prop.run] replaced with
   change-driven propagation from a per-graph baseline. Kept only as
   the differential oracle: the sparse result, read through its
   accessors, must equal this one in every value, arc enablement and
   pin disable. *)

module Design = Mm_netlist.Design
module Lib_cell = Mm_netlist.Lib_cell
module Logic = Mm_netlist.Logic
module Mode = Mm_sdc.Mode
module Tgraph = Mm_timing.Tgraph
type t = {
  values : Logic.tri array;  (* per pin *)
  arc_enabled : bool array;  (* per arc *)
  pin_disabled : bool array;  (* per pin *)
}

let run (g : Tgraph.t) (mode : Mode.t) =
  let design = g.Tgraph.sk_design in
  let n = Tgraph.n_pins g in
  let values = Array.make n Logic.X in
  let forced = Array.make n false in
  List.iter
    (fun (pin, v) ->
      values.(pin) <- Logic.tri_of_bool v;
      forced.(pin) <- true)
    mode.Mode.cases;
  (* Propagate constants in topological order. Forced pins keep their
     case value regardless of drivers. *)
  Array.iter
    (fun pin ->
      if not forced.(pin) then begin
        match Design.pin_owner design pin with
        | Design.Port_pin _ -> () (* inputs unknown unless cased *)
        | Design.Inst_pin (inst, idx) ->
          let cell = Design.inst_cell design inst in
          if cell.Lib_cell.pins.(idx).Lib_cell.dir = Lib_cell.Output then begin
            (* Sequential outputs stay X; combinational outputs evaluate
               their function. *)
            match Lib_cell.function_of_output cell idx with
            | Some f ->
              let env i = values.(Design.inst_pin design inst i) in
              values.(pin) <- Logic.eval env f
            | None -> ()
          end
          else begin
            (* Input pin: copy the net driver's value. *)
            match Design.pin_net design pin with
            | None -> ()
            | Some net -> (
              match Design.net_driver design net with
              | Some drv when drv <> pin -> values.(pin) <- values.(drv)
              | Some _ | None -> ())
          end
      end)
    g.Tgraph.topo;
  (* Disables. *)
  let pin_disabled = Array.make n false in
  let arc_disabled = Hashtbl.create 16 in
  List.iter
    (function
      | Mode.Dis_pin pin -> pin_disabled.(pin) <- true
      | Mode.Dis_inst (inst, from_, to_) ->
        let cell = Design.inst_cell design inst in
        let matches name spec =
          match spec with None -> true | Some s -> String.equal s name
        in
        for aid = 0 to Tgraph.n_arcs g - 1 do
          if Tgraph.arc_inst g aid = inst && Tgraph.arc_kind g aid <> Tgraph.Net
          then begin
            let pin_name_of p =
              match Design.pin_owner design p with
              | Design.Inst_pin (_, i) ->
                cell.Lib_cell.pins.(i).Lib_cell.pin_name
              | Design.Port_pin _ -> ""
            in
            if
              matches (pin_name_of (Tgraph.arc_src g aid)) from_
              && matches (pin_name_of (Tgraph.arc_dst g aid)) to_
            then Hashtbl.replace arc_disabled aid ()
          end
        done)
    mode.Mode.disables;
  let broken = Hashtbl.create 16 in
  List.iter
    (fun aid -> Hashtbl.replace broken aid ())
    g.Tgraph.broken;
  (* Arc enablement. *)
  let arc_enabled =
    Array.init (Tgraph.n_arcs g) (fun aid ->
        let src = Tgraph.arc_src g aid and dst = Tgraph.arc_dst g aid in
        if
          Hashtbl.mem arc_disabled aid
          || Hashtbl.mem broken aid
          || pin_disabled.(src)
          || pin_disabled.(dst)
          || values.(src) <> Logic.X
          || values.(dst) <> Logic.X
        then false
        else
          match Tgraph.arc_kind g aid with
          | Tgraph.Net | Tgraph.Launch -> true
          | Tgraph.Comb -> (
            match Design.pin_owner design dst with
            | Design.Inst_pin (inst, out_idx) -> (
              let cell = Design.inst_cell design inst in
              match Lib_cell.function_of_output cell out_idx with
              | Some f -> (
                let env i = values.(Design.inst_pin design inst i) in
                match Design.pin_owner design src with
                | Design.Inst_pin (_, in_idx) -> Logic.observable env f in_idx
                | Design.Port_pin _ -> true)
              | None -> true)
            | Design.Port_pin _ -> true))
  in
  { values; arc_enabled; pin_disabled }
