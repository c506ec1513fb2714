module Vec = Mm_util.Vec
module Names = Hashtbl.Make (String)

type pin_id = int
type inst_id = int
type net_id = int
type port_id = int

type port_dir = In | Out
type pin_owner = Port_pin of port_id | Inst_pin of inst_id * int

type port = { pt_name : string; pt_dir : port_dir; pt_pin : pin_id }

(* An instance's pins are numbered consecutively from [in_pin0], one per
   cell pin. *)
type inst = { in_name : string; in_cell : Lib_cell.t; in_pin0 : pin_id }

type net = {
  nt_name : string;
  mutable nt_driver : int; (* pin id, -1 when none *)
  nt_sinks : pin_id Vec.t;
}

type t = {
  d_name : string;
  (* Per pin: its owner, and its net (-1 when unconnected). *)
  pin_owner : pin_owner Vec.t;
  pin_net : int Vec.t;
  ports : port Vec.t;
  insts : inst Vec.t;
  nets : net Vec.t;
  port_by_name : port_id Names.t;
  inst_by_name : inst_id Names.t;
  net_by_name : net_id Names.t;
}

let create d_name =
  {
    d_name;
    pin_owner = Vec.create ();
    pin_net = Vec.create ();
    ports = Vec.create ();
    insts = Vec.create ();
    nets = Vec.create ();
    port_by_name = Names.create 64;
    inst_by_name = Names.create 64;
    net_by_name = Names.create 64;
  }

let design_name t = t.d_name

let new_pin t owner =
  ignore (Vec.push t.pin_owner owner);
  Vec.push t.pin_net (-1)

let add_port t name dir =
  if Names.mem t.port_by_name name then
    invalid_arg (Printf.sprintf "Design.add_port: duplicate port %s" name);
  let port_id = Vec.length t.ports in
  let pin_id = new_pin t (Port_pin port_id) in
  let id = Vec.push t.ports { pt_name = name; pt_dir = dir; pt_pin = pin_id } in
  Names.add t.port_by_name name id;
  id

let add_inst t name cell =
  if Names.mem t.inst_by_name name then
    invalid_arg (Printf.sprintf "Design.add_inst: duplicate instance %s" name);
  let inst_id = Vec.length t.insts in
  let in_pin0 = Vec.length t.pin_net in
  for i = 0 to Array.length cell.Lib_cell.pins - 1 do
    ignore (new_pin t (Inst_pin (inst_id, i)))
  done;
  let id = Vec.push t.insts { in_name = name; in_cell = cell; in_pin0 } in
  Names.add t.inst_by_name name id;
  id

let get_net t name =
  match Names.find_opt t.net_by_name name with
  | Some id -> id
  | None ->
    let id =
      Vec.push t.nets { nt_name = name; nt_driver = -1; nt_sinks = Vec.create () }
    in
    Names.add t.net_by_name name id;
    id

let pin_owner t pin_id = Vec.get t.pin_owner pin_id

let pin_is_driver t pin_id =
  match pin_owner t pin_id with
  | Port_pin port_id -> (Vec.get t.ports port_id).pt_dir = In
  | Inst_pin (inst_id, i) ->
    let inst = Vec.get t.insts inst_id in
    inst.in_cell.Lib_cell.pins.(i).Lib_cell.dir = Lib_cell.Output

let pin_name t pin_id =
  match pin_owner t pin_id with
  | Port_pin port_id -> (Vec.get t.ports port_id).pt_name
  | Inst_pin (inst_id, i) ->
    let inst = Vec.get t.insts inst_id in
    inst.in_name ^ "/" ^ inst.in_cell.Lib_cell.pins.(i).Lib_cell.pin_name

let attach t net_id pin_id =
  if Vec.get t.pin_net pin_id >= 0 then
    invalid_arg
      (Printf.sprintf "Design.attach: pin %s already connected"
         (pin_name t pin_id));
  let net = Vec.get t.nets net_id in
  if pin_is_driver t pin_id then begin
    if net.nt_driver >= 0 then
      invalid_arg
        (Printf.sprintf "Design.attach: net %s already driven by %s"
           net.nt_name
           (pin_name t net.nt_driver));
    net.nt_driver <- pin_id
  end
  else ignore (Vec.push net.nt_sinks pin_id);
  Vec.set t.pin_net pin_id net_id

let find_port t name = Names.find_opt t.port_by_name name
let find_inst t name = Names.find_opt t.inst_by_name name
let find_net t name = Names.find_opt t.net_by_name name

let pin_of_name t name =
  match String.index_opt name '/' with
  | None -> (
    match find_port t name with
    | Some port_id -> Some (Vec.get t.ports port_id).pt_pin
    | None -> None)
  | Some i -> (
    let inst_name = String.sub name 0 i in
    let pin_name = String.sub name (i + 1) (String.length name - i - 1) in
    match find_inst t inst_name with
    | None -> None
    | Some inst_id -> (
      let inst = Vec.get t.insts inst_id in
      match Lib_cell.pin_index inst.in_cell pin_name with
      | idx -> Some (inst.in_pin0 + idx)
      | exception Not_found -> None))

let pin_of_name_exn t name =
  match pin_of_name t name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Design: no pin named %s" name)

let wire t net_name pin_names =
  let net = get_net t net_name in
  List.iter (fun pn -> attach t net (pin_of_name_exn t pn)) pin_names

let port_name t id = (Vec.get t.ports id).pt_name
let port_dir t id = (Vec.get t.ports id).pt_dir
let port_pin t id = (Vec.get t.ports id).pt_pin

let inst_name t id = (Vec.get t.insts id).in_name
let inst_cell t id = (Vec.get t.insts id).in_cell
let inst_pin t id i =
  let inst = Vec.get t.insts id in
  if i < 0 || i >= Array.length inst.in_cell.Lib_cell.pins then
    invalid_arg "index out of bounds";
  inst.in_pin0 + i

let inst_pin_by_name t id name =
  let inst = Vec.get t.insts id in
  inst.in_pin0 + Lib_cell.pin_index inst.in_cell name

let inst_pins t id =
  let inst = Vec.get t.insts id in
  Array.init (Array.length inst.in_cell.Lib_cell.pins) (fun i -> inst.in_pin0 + i)

let net_name t id = (Vec.get t.nets id).nt_name

let net_driver t id =
  let d = (Vec.get t.nets id).nt_driver in
  if d < 0 then None else Some d

let net_sinks t id = Vec.to_list (Vec.get t.nets id).nt_sinks
let net_fanout t id = Vec.length (Vec.get t.nets id).nt_sinks
let iter_net_sinks t id f = Vec.iter f (Vec.get t.nets id).nt_sinks

let pin_net t pin_id =
  let n = Vec.get t.pin_net pin_id in
  if n < 0 then None else Some n

let pin_cell_pin t pin_id =
  match pin_owner t pin_id with
  | Port_pin _ -> None
  | Inst_pin (inst_id, i) ->
    Some (Vec.get t.insts inst_id).in_cell.Lib_cell.pins.(i)

let pin_cap t pin_id =
  match pin_cell_pin t pin_id with
  | Some p -> p.Lib_cell.cap
  | None -> 0.001 (* nominal port load *)

let pin_role t pin_id =
  match pin_cell_pin t pin_id with
  | Some p -> Some p.Lib_cell.role
  | None -> None

let n_ports t = Vec.length t.ports
let n_insts t = Vec.length t.insts
let n_nets t = Vec.length t.nets
let n_pins t = Vec.length t.pin_net

let iter_ports t f =
  for i = 0 to n_ports t - 1 do
    f i
  done

let iter_insts t f =
  for i = 0 to n_insts t - 1 do
    f i
  done

let iter_nets t f =
  for i = 0 to n_nets t - 1 do
    f i
  done

let iter_pins t f =
  for i = 0 to n_pins t - 1 do
    f i
  done

let fanout_pins t pin_id =
  match pin_net t pin_id with
  | None -> []
  | Some net_id ->
    if not (pin_is_driver t pin_id) then []
    else net_sinks t net_id

let registers t =
  let acc = ref [] in
  for i = n_insts t - 1 downto 0 do
    if Lib_cell.is_sequential (inst_cell t i) then acc := i :: !acc
  done;
  !acc
