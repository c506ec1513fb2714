module Design = Mm_netlist.Design
module Lib_cell = Mm_netlist.Lib_cell
module Logic = Mm_netlist.Logic
module Mode = Mm_sdc.Mode

(* One byte per pin or arc: a layer is a few bytes per design object,
   so a run can keep every distinct layer it builds. *)
type t = {
  values : Bytes.t;  (* per pin, [code] of its value *)
  arc_enabled : Bytes.t;  (* per arc, '\001' when enabled *)
  pin_disabled : Bytes.t;  (* per pin, '\001' when disabled *)
}

let code = function Logic.F -> '\000' | Logic.T -> '\001' | Logic.X -> '\002'
let x_code = code Logic.X

let decode = function
  | '\000' -> Logic.F
  | '\001' -> Logic.T
  | _ -> Logic.X

let flag b i = Bytes.get b i <> '\000'

(* The value a pin computes from what it reads: a combinational output
   evaluates its cell function over its instance's pins, an input pin
   copies its net driver; ports and sequential outputs stay X. Every
   pin read is the source of one of the pin's incoming arcs (a comb arc
   per function input, a net arc from the driver), so the readers of a
   pin are among its fan-out. *)
let eval_pin design ~read pin =
  match Design.pin_owner design pin with
  | Design.Port_pin _ -> Logic.X
  | Design.Inst_pin (inst, idx) ->
    let cell = Design.inst_cell design inst in
    if cell.Lib_cell.pins.(idx).Lib_cell.dir = Lib_cell.Output then begin
      match Lib_cell.function_of_output cell idx with
      | Some f -> Logic.eval (fun i -> read (Design.inst_pin design inst i)) f
      | None -> Logic.X
    end
    else begin
      match Design.pin_net design pin with
      | None -> Logic.X
      | Some net -> (
        match Design.net_driver design net with
        | Some drv when drv <> pin -> read drv
        | Some _ | None -> Logic.X)
    end

(* Re-evaluate the pins marked in [dirty] (indexed by topological
   position) in topological order, starting at position [first]. A pin
   reads the current value of a pin placed before it; across a cycle
   break it reads the later pin's initial value — its case value, else
   X — which is what one in-order sweep from all-X reads there. A pin
   whose value changes marks its later readers dirty. Returns the
   changed pins. *)
let sweep g ~values ~forced ~dirty ~first =
  let design = g.Tgraph.sk_design in
  let topo = g.Tgraph.topo and pos = g.Tgraph.topo_pos in
  let initial q = Option.value (Hashtbl.find_opt forced q) ~default:Logic.X in
  let changed = ref [] in
  for k = first to Array.length topo - 1 do
    if Bytes.get dirty k <> '\000' then begin
      let p = topo.(k) in
      let v =
        match Hashtbl.find_opt forced p with
        | Some v -> v
        | None ->
          eval_pin design p ~read:(fun q ->
              if pos.(q) < k then decode (Bytes.get values q) else initial q)
      in
      if code v <> Bytes.get values p then begin
        Bytes.set values p (code v);
        changed := p :: !changed;
        Tgraph.iter_out g p (fun aid ->
            let r = pos.(Tgraph.arc_dst g aid) in
            if r > k then Bytes.set dirty r '\001')
      end
    end
  done;
  !changed

(* Enablement of one arc under final pin values and the mode's
   disables; see the interface for the rules. *)
let arc_on g ~values ~pin_disabled ~inst_disabled ~broken aid =
  let design = g.Tgraph.sk_design in
  let src = Tgraph.arc_src g aid and dst = Tgraph.arc_dst g aid in
  if
    Hashtbl.mem inst_disabled aid
    || Hashtbl.mem broken aid
    || flag pin_disabled src
    || flag pin_disabled dst
    || Bytes.get values src <> x_code
    || Bytes.get values dst <> x_code
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
          let env i =
            decode (Bytes.get values (Design.inst_pin design inst i))
          in
          match Design.pin_owner design src with
          | Design.Inst_pin (_, in_idx) -> Logic.observable env f in_idx
          | Design.Port_pin _ -> true)
        | None -> true)
      | Design.Port_pin _ -> true)

let broken_table g =
  let broken = Hashtbl.create 16 in
  List.iter
    (fun aid -> Hashtbl.replace broken aid ())
    g.Tgraph.broken;
  broken

(* The cell and launch arcs of one instance: each leaves one of the
   instance's own pins. *)
let iter_inst_arcs g inst f =
  let design = g.Tgraph.sk_design in
  let cell = Design.inst_cell design inst in
  for i = 0 to Array.length cell.Lib_cell.pins - 1 do
    Tgraph.iter_out g (Design.inst_pin design inst i) (fun aid ->
        if Tgraph.arc_inst g aid = inst && Tgraph.arc_kind g aid <> Tgraph.Net
        then f aid)
  done

(* The all-X baseline: every pin swept once from all-X with no cases,
   every arc evaluated with no disables. *)
let compute_baseline g =
  let n = Tgraph.n_pins g in
  let values = Bytes.make n x_code in
  ignore
    (sweep g ~values ~forced:(Hashtbl.create 1) ~dirty:(Bytes.make n '\001')
       ~first:0);
  let pin_disabled = Bytes.make n '\000' in
  let inst_disabled = Hashtbl.create 1 and broken = broken_table g in
  let constants = ref [] and disabled = ref [] in
  for p = n - 1 downto 0 do
    let v = decode (Bytes.get values p) in
    if v <> Logic.X then constants := (p, v) :: !constants
  done;
  for aid = Tgraph.n_arcs g - 1 downto 0 do
    if not (arc_on g ~values ~pin_disabled ~inst_disabled ~broken aid) then
      disabled := aid :: !disabled
  done;
  {
    Tgraph.cb_constants = Array.of_list !constants;
    cb_disabled = Array.of_list !disabled;
  }

(* Computed once per compiled graph, under a lock: a domain that finds
   the slot empty while another computes waits for that baseline. *)
let baseline_lock = Mutex.create ()

let baseline g =
  Mutex.protect baseline_lock (fun () ->
      match Atomic.get g.Tgraph.const_base with
      | Some b -> b
      | None ->
        let b = compute_baseline g in
        Atomic.set g.Tgraph.const_base (Some b);
        b)

let run (g : Tgraph.t) (mode : Mode.t) =
  let design = g.Tgraph.sk_design in
  let n = Tgraph.n_pins g in
  let pos = g.Tgraph.topo_pos in
  let base = baseline g in
  (* Case values; a pin cased twice keeps its last value. *)
  let forced = Hashtbl.create 16 in
  List.iter
    (fun (pin, v) -> Hashtbl.replace forced pin (Logic.tri_of_bool v))
    mode.Mode.cases;
  (* Seeds: every cased pin, and every earlier reader of one — across a
     cycle break it sees the case value where the baseline saw X. *)
  let dirty = Bytes.make n '\000' in
  let first = ref n in
  let mark k =
    Bytes.set dirty k '\001';
    if k < !first then first := k
  in
  Hashtbl.iter
    (fun pin _ ->
      mark pos.(pin);
      Tgraph.iter_out g pin (fun aid ->
          let r = pos.(Tgraph.arc_dst g aid) in
          if r < pos.(pin) then mark r))
    forced;
  let values = Bytes.make n x_code in
  Array.iter
    (fun (p, v) -> Bytes.set values p (code v))
    base.Tgraph.cb_constants;
  let changed = sweep g ~values ~forced ~dirty ~first:!first in
  (* Disables. *)
  let pin_disabled = Bytes.make n '\000' in
  let inst_disabled = Hashtbl.create 16 in
  List.iter
    (function
      | Mode.Dis_pin pin -> Bytes.set pin_disabled pin '\001'
      | Mode.Dis_inst (inst, from_, to_) ->
        let cell = Design.inst_cell design inst in
        let matches spec p =
          match spec with
          | None -> true
          | Some s ->
            String.equal s
              (match Design.pin_owner design p with
              | Design.Inst_pin (_, i) ->
                cell.Lib_cell.pins.(i).Lib_cell.pin_name
              | Design.Port_pin _ -> "")
        in
        iter_inst_arcs g inst (fun aid ->
            if
              matches from_ (Tgraph.arc_src g aid)
              && matches to_ (Tgraph.arc_dst g aid)
            then Hashtbl.replace inst_disabled aid ()))
    mode.Mode.disables;
  (* Enablement differs from the baseline only on arcs that touch a
     changed or disabled pin, arcs of an instance with a changed pin
     (cell-arc observability reads the whole instance), and disabled
     instance arcs. *)
  let arc_enabled = Bytes.make (Tgraph.n_arcs g) '\001' in
  Array.iter
    (fun aid -> Bytes.set arc_enabled aid '\000')
    base.Tgraph.cb_disabled;
  let broken = broken_table g in
  let refresh aid =
    Bytes.set arc_enabled aid
      (if arc_on g ~values ~pin_disabled ~inst_disabled ~broken aid then '\001'
       else '\000')
  in
  let refresh_pin p =
    Tgraph.iter_in g p refresh;
    Tgraph.iter_out g p refresh
  in
  List.iter
    (fun p ->
      refresh_pin p;
      match Design.pin_owner design p with
      | Design.Inst_pin (inst, _) -> iter_inst_arcs g inst refresh
      | Design.Port_pin _ -> ())
    changed;
  List.iter
    (function Mode.Dis_pin p -> refresh_pin p | Mode.Dis_inst _ -> ())
    mode.Mode.disables;
  Hashtbl.iter (fun aid () -> refresh aid) inst_disabled;
  { values; arc_enabled; pin_disabled }

let value t pin = decode (Bytes.get t.values pin)
let enabled t aid = flag t.arc_enabled aid
let disabled t pin = flag t.pin_disabled pin

let pin_active t pin =
  (not (flag t.pin_disabled pin)) && Bytes.get t.values pin = x_code
