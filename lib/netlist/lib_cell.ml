type direction = Input | Output

type role =
  | Data
  | Clock_in
  | Scan_enable
  | Scan_in
  | Select
  | Enable
  | Async_reset

type pin = { pin_name : string; dir : direction; role : role; cap : float }

type edge = Rising | Falling

type seq_info = {
  clock_pin : int;
  clock_edge : edge;
  data_pins : int list;
  q_pins : int list;
  setup : float;
  hold : float;
  clk_to_q : float;
  is_latch : bool;
}

type t = {
  cell_name : string;
  pins : pin array;
  functions : (int * Logic.t) list;
  seq : seq_info option;
  intrinsic : float;
  drive_res : float;
}

let make ?(functions = []) ?seq ?(intrinsic = 0.05) ?(drive_res = 1.0)
    cell_name pins =
  { cell_name; pins = Array.of_list pins; functions; seq; intrinsic; drive_res }

let pin_index t name =
  let rec go i =
    if i >= Array.length t.pins then raise Not_found
    else if String.equal t.pins.(i).pin_name name then i
    else go (i + 1)
  in
  go 0

let function_of_output t o = List.assoc_opt o t.functions
let is_sequential t = t.seq <> None
let is_combinational t = t.seq = None

let comb_arcs t =
  List.concat_map
    (fun (o, f) -> List.map (fun i -> i, o) (Logic.support f))
    t.functions
