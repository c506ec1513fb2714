module Design = Mm_netlist.Design
module Lib_cell = Mm_netlist.Lib_cell
module Mode = Mm_sdc.Mode

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
  from_pins : Bytes.t;
  through_pins : Bytes.t;
  to_pins : Bytes.t;
  (* Per pin, nonzero when the pin occurs in some exception's -from,
     -through or -to list; empty when no list of that kind names a pin,
     so a mode without such exceptions holds no per-pin array. *)
  through_at : (Design.pin_id, (int * int) list) Hashtbl.t;
  (* The interning tables and the two memo tables are the only mutable
     state a prepared matcher carries, and a context may be consulted
     from pool domains — every access to [states]/[state_list]/
     [n_states]/[initial_memo]/[match_memo] happens under [mx].
     Everything else is immutable after [prepare]. *)
  mx : Mutex.t;
  states : (int array, int) Hashtbl.t;
  mutable state_list : int array array;
  mutable n_states : int;
  initial_memo : (int, int) Hashtbl.t;
      (* (launch clock, launch edge, data edge) -> initial state, for
         startpoints named in no -from list *)
  match_memo : (int, Mode.exc list) Hashtbl.t;
      (* (state, capture clock, data edge) -> matched exceptions, for
         endpoints named in no -to list *)
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
  let marks iter =
    let b = ref Bytes.empty in
    iter (fun pin ->
        if Bytes.length !b = 0 then b := Bytes.make g.Tgraph.sk_n_pins '\000';
        Bytes.set !b pin '\001');
    !b
  in
  let table_marks field f =
    Array.iter (fun pe -> Hashtbl.iter (fun pin () -> f pin) (field pe)) pexcs
  in
  {
    pexcs;
    from_pins = marks (table_marks (fun pe -> pe.px_from_pins));
    through_pins =
      marks (fun f -> Hashtbl.iter (fun pin _ -> f pin) through_at);
    to_pins = marks (table_marks (fun pe -> pe.px_to_pins));
    through_at;
    mx = Mutex.create ();
    states = Hashtbl.create 64;
    state_list = [||];
    n_states = 0;
    initial_memo = Hashtbl.create 16;
    match_memo = Hashtbl.create 16;
    edge_sensitive;
  }

let listed marks pin =
  pin < Bytes.length marks && Bytes.unsafe_get marks pin <> '\000'

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

let edge_code = function
  | Mode.Any_edge -> 0
  | Mode.Rise_edge -> 1
  | Mode.Fall_edge -> 2

(* A clock index or none as 0..63 (clock masks hold at most 63). *)
let clock_code = function None -> 0 | Some c -> c + 1

(* The progress vector of a tag seeded at [start_pins], by scanning
   every exception. *)
let initial_vector t ~start_pins ~launch_clock ~launch_edge ~data_edge =
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
  v

(* At a startpoint no -from list names, no exception sees a pin hit, so
   the vector depends only on the memo key. Interning a vector returns
   the id of an equal one interned before, so the memo hands out the
   ids the scan would. *)
let initial_state t ~start_pins ~launch_clock
    ?(launch_edge = Lib_cell.Rising) ?(data_edge = Mode.Any_edge) () =
  let vector () =
    initial_vector t ~start_pins ~launch_clock ~launch_edge ~data_edge
  in
  if List.exists (listed t.from_pins) start_pins then
    let v = vector () in
    locked t (fun () -> intern t v)
  else
    let key =
      (((clock_code launch_clock * 2)
       + match launch_edge with Lib_cell.Rising -> 0 | Lib_cell.Falling -> 1)
       * 3)
      + edge_code data_edge
    in
    locked t @@ fun () ->
    match Hashtbl.find_opt t.initial_memo key with
    | Some id -> id
    | None ->
      let id = intern t (vector ()) in
      Hashtbl.add t.initial_memo key id;
      id

let advance t state pin =
  if not (listed t.through_pins pin) then state
  else
    let hits = Hashtbl.find t.through_at pin in
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

(* The exceptions progress vector [v] fully matches at the endpoint, in
   exception order. *)
let matched t v ~end_pins ~capture_clock ~data_edge =
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

(* At an endpoint no -to list names, no exception sees a pin hit, so
   the list depends only on the memo key. *)
let matches_at t state ~end_pins ~capture_clock ?(data_edge = Mode.Any_edge) () =
  if Array.length t.pexcs = 0 then []
  else if List.exists (listed t.to_pins) end_pins then
    let v = locked t (fun () -> t.state_list.(state)) in
    matched t v ~end_pins ~capture_clock ~data_edge
  else
    let key =
      (((state * 64) + clock_code capture_clock) * 3) + edge_code data_edge
    in
    locked t @@ fun () ->
    match Hashtbl.find_opt t.match_memo key with
    | Some excs -> excs
    | None ->
      let excs =
        matched t t.state_list.(state) ~end_pins ~capture_clock ~data_edge
      in
      Hashtbl.add t.match_memo key excs;
      excs

let progress t state = locked t (fun () -> Array.copy t.state_list.(state))
