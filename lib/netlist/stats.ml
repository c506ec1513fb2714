type t = {
  ports : int;
  insts : int;
  nets : int;
  pins : int;
  registers : int;
  combinational : int;
  max_fanout : int;
}

let of_design d =
  let registers = List.length (Design.registers d) in
  let max_fanout = ref 0 in
  Design.iter_nets d (fun n -> max_fanout := max !max_fanout (Design.net_fanout d n));
  {
    ports = Design.n_ports d;
    insts = Design.n_insts d;
    nets = Design.n_nets d;
    pins = Design.n_pins d;
    registers;
    combinational = Design.n_insts d - registers;
    max_fanout = !max_fanout;
  }

let to_string s =
  Printf.sprintf
    "ports=%d insts=%d (seq=%d comb=%d) nets=%d pins=%d max_fanout=%d"
    s.ports s.insts s.registers s.combinational s.nets s.pins s.max_fanout
