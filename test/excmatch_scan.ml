(* The exception matcher as it was before it indexed pins and memoised
   seeds and matches: every [initial_state] and [matches_at] scans every
   exception, and every [advance] probes a table. Kept as the oracle of
   the differential property in test_sta_equiv.ml, which requires the
   production matcher to hand out the same progress vectors and matched
   exception lists. *)

module Design = Mm_netlist.Design
module Lib_cell = Mm_netlist.Lib_cell
module Mode = Mm_sdc.Mode
module Tgraph = Mm_timing.Tgraph
module Clock_prop = Mm_timing.Clock_prop

type pexc = {
  px_exc : Mode.exc;
  px_from_pins : (Design.pin_id, unit) Hashtbl.t;  (** empty = none listed *)
  px_from_clocks : int;
  px_has_from : bool;
  px_from_edge : Mode.edge_sel;
  px_nthrough : int;
  px_to_pins : (Design.pin_id, unit) Hashtbl.t;
  px_to_clocks : int;
  px_has_to : bool;
  px_to_edge : Mode.edge_sel;
}

type t = {
  pexcs : pexc array;
  through_at : (Design.pin_id, (int * int) list) Hashtbl.t;
  (* The interning tables are the only mutable state a prepared matcher
     carries, and a context may be consulted from pool domains — every
     access to [states]/[state_list]/[n_states] happens under [mx].
     [pexcs] and [through_at] are immutable after [prepare]. *)
  mx : Mutex.t;
  states : (int array, int) Hashtbl.t;
  mutable state_list : int array array;
  mutable n_states : int;
  edge_sensitive : bool;
}

(* Requires [t.mx] held. *)
let intern t v =
  match Hashtbl.find_opt t.states v with
  | Some id -> id
  | None ->
    let id = t.n_states in
    Hashtbl.replace t.states v id;
    if id >= Array.length t.state_list then begin
      let bigger = Array.make (max 16 (2 * Array.length t.state_list)) [||] in
      Array.blit t.state_list 0 bigger 0 (Array.length t.state_list);
      t.state_list <- bigger
    end;
    t.state_list.(id) <- v;
    t.n_states <- id + 1;
    id

let reg_alias_pins design inst =
  let cell = Design.inst_cell design inst in
  match cell.Lib_cell.seq with
  | None -> []
  | Some seq ->
    Design.inst_pin design inst seq.Lib_cell.clock_pin
    :: List.map (fun q -> Design.inst_pin design inst q) seq.Lib_cell.q_pins

let reg_data_pins design inst =
  let cell = Design.inst_cell design inst in
  match cell.Lib_cell.seq with
  | None -> []
  | Some seq ->
    List.map (fun d -> Design.inst_pin design inst d) seq.Lib_cell.data_pins

let prepare (g : Tgraph.t) (clocks : Clock_prop.t) (mode : Mode.t) =
  let design = g.Tgraph.sk_design in
  let prepare_points ~as_from points =
    let pins = Hashtbl.create 8 and clock_mask = ref 0 in
    List.iter
      (function
        | Mode.P_pin p -> Hashtbl.replace pins p ()
        | Mode.P_clock c -> (
          match Clock_prop.clock_index clocks c with
          | Some i -> clock_mask := !clock_mask lor (1 lsl i)
          | None -> ())
        | Mode.P_inst inst ->
          let alias =
            if as_from then reg_alias_pins design inst
            else reg_data_pins design inst
          in
          List.iter (fun p -> Hashtbl.replace pins p ()) alias)
      points;
    pins, !clock_mask
  in
  let pexcs =
    Array.of_list
      (List.map
         (fun (e : Mode.exc) ->
           let from_pins, from_clocks =
             match e.exc_from with
             | None -> Hashtbl.create 1, 0
             | Some points -> prepare_points ~as_from:true points
           in
           let to_pins, to_clocks =
             match e.exc_to with
             | None -> Hashtbl.create 1, 0
             | Some points -> prepare_points ~as_from:false points
           in
           {
             px_exc = e;
             px_from_pins = from_pins;
             px_from_clocks = from_clocks;
             px_has_from = e.exc_from <> None;
             px_from_edge = e.exc_from_edge;
             px_nthrough = List.length e.exc_through;
             px_to_pins = to_pins;
             px_to_clocks = to_clocks;
             px_has_to = e.exc_to <> None;
             px_to_edge = e.exc_to_edge;
           })
         mode.Mode.exceptions)
  in
  let through_at = Hashtbl.create 32 in
  Array.iteri
    (fun ei pe ->
      List.iteri
        (fun gi pins ->
          List.iter
            (fun pin ->
              let prev =
                Option.value ~default:[] (Hashtbl.find_opt through_at pin)
              in
              Hashtbl.replace through_at pin ((ei, gi) :: prev))
            pins)
        pe.px_exc.Mode.exc_through)
    pexcs;
  let edge_sensitive =
    Array.exists
      (fun pe ->
        pe.px_from_edge <> Mode.Any_edge || pe.px_to_edge <> Mode.Any_edge)
      pexcs
  in
  {
    pexcs;
    through_at;
    mx = Mutex.create ();
    states = Hashtbl.create 64;
    state_list = [||];
    n_states = 0;
    edge_sensitive;
  }

let locked t f =
  Mutex.lock t.mx;
  match f () with
  | r ->
    Mutex.unlock t.mx;
    r
  | exception e ->
    Mutex.unlock t.mx;
    raise e

let n_states t = locked t (fun () -> t.n_states)
let edge_sensitive t = t.edge_sensitive

let edge_compatible restriction actual =
  match restriction, actual with
  | Mode.Any_edge, _ | _, Mode.Any_edge -> true
  | Mode.Rise_edge, Mode.Rise_edge | Mode.Fall_edge, Mode.Fall_edge -> true
  | Mode.Rise_edge, Mode.Fall_edge | Mode.Fall_edge, Mode.Rise_edge -> false

let initial_state t ~start_pins ~launch_clock
    ?(launch_edge = Lib_cell.Rising) ?(data_edge = Mode.Any_edge) () =
  let n = Array.length t.pexcs in
  let v = Array.make n 0 in
  for i = 0 to n - 1 do
    let pe = t.pexcs.(i) in
    if pe.px_has_from then begin
      let pin_hit = List.exists (Hashtbl.mem pe.px_from_pins) start_pins in
      let clock_hit =
        match launch_clock with
        | Some c -> pe.px_from_clocks land (1 lsl c) <> 0
        | None -> false
      in
      (* A clock-based from restricts the launch edge; a pin-based from
         restricts the data transition at the startpoint. *)
      let edge_ok =
        match pe.px_from_edge with
        | Mode.Any_edge -> true
        | restriction ->
          if clock_hit && not pin_hit then
            edge_compatible restriction
              (match launch_edge with
              | Lib_cell.Rising -> Mode.Rise_edge
              | Lib_cell.Falling -> Mode.Fall_edge)
          else edge_compatible restriction data_edge
      in
      if not ((pin_hit || clock_hit) && edge_ok) then v.(i) <- -1
    end
  done;
  locked t (fun () -> intern t v)

let advance t state pin =
  match Hashtbl.find_opt t.through_at pin with
  | None -> state
  | Some hits ->
    locked t @@ fun () ->
    let v = t.state_list.(state) in
    let changed = ref false in
    let v' = Array.copy v in
    List.iter
      (fun (ei, gi) ->
        if v'.(ei) = gi then begin
          v'.(ei) <- gi + 1;
          changed := true
        end)
      hits;
    if !changed then intern t v' else state

let matches_at t state ~end_pins ~capture_clock ?(data_edge = Mode.Any_edge) () =
  let v = locked t (fun () -> t.state_list.(state)) in
  let acc = ref [] in
  for i = Array.length t.pexcs - 1 downto 0 do
    let pe = t.pexcs.(i) in
    if v.(i) = pe.px_nthrough then begin
      let to_ok =
        if not pe.px_has_to then true
        else
          List.exists (Hashtbl.mem pe.px_to_pins) end_pins
          ||
          match capture_clock with
          | Some c -> pe.px_to_clocks land (1 lsl c) <> 0
          | None -> false
      in
      if to_ok && edge_compatible pe.px_to_edge data_edge then
        acc := pe.px_exc :: !acc
    end
  done;
  !acc

let progress t state = locked t (fun () -> Array.copy t.state_list.(state))
