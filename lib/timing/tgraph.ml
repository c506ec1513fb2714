module Design = Mm_netlist.Design
module Lib_cell = Mm_netlist.Lib_cell
module Wire_load = Mm_netlist.Wire_load
module Mode = Mm_sdc.Mode
module Obs = Mm_util.Obs

type arc_kind = Comb | Net | Launch

type unate = Positive | Negative | Non_unate

type endpoint =
  | Ep_reg of {
      ep_data : Design.pin_id;
      ep_clock : Design.pin_id;
      ep_inst : Design.inst_id;
      ep_setup : float;
      ep_hold : float;
      ep_edge : Lib_cell.edge;
    }
  | Ep_port of { ep_pin : Design.pin_id }

type startpoint =
  | Sp_reg of {
      sp_clock : Design.pin_id;
      sp_inst : Design.inst_id;
      sp_outputs : Design.pin_id list;
      sp_clk_to_q : float;
      sp_edge : Lib_cell.edge;
    }
  | Sp_port of { sp_pin : Design.pin_id }

(* Unateness of [f] in input [i], decided by exhaustive evaluation over
   the (small) support of the cell function. The variable-to-bit index
   map is precomputed once so the 2^n mask loop stays O(2^n) instead of
   O(2^n * n). *)
let unateness f i =
  let support = Mm_netlist.Logic.support f in
  if not (List.mem i support) then Non_unate
  else begin
    let others = List.filter (fun j -> j <> i) support in
    let n = List.length others in
    let maxv = List.fold_left max i support in
    let bit_of = Array.make (maxv + 1) (-1) in
    List.iteri (fun k j -> bit_of.(j) <- k) others;
    let can_pos = ref true and can_neg = ref true in
    for mask = 0 to (1 lsl n) - 1 do
      let env_with vi j =
        if j = i then vi
        else
          match if j >= 0 && j <= maxv then bit_of.(j) else -1 with
          | -1 -> Mm_netlist.Logic.X
          | k ->
            if mask land (1 lsl k) <> 0 then Mm_netlist.Logic.T
            else Mm_netlist.Logic.F
      in
      let f0 = Mm_netlist.Logic.eval (env_with Mm_netlist.Logic.F) f
      and f1 = Mm_netlist.Logic.eval (env_with Mm_netlist.Logic.T) f in
      (match f0, f1 with
      | Mm_netlist.Logic.T, Mm_netlist.Logic.F -> can_pos := false
      | Mm_netlist.Logic.F, Mm_netlist.Logic.T -> can_neg := false
      | _ -> ())
    done;
    match !can_pos, !can_neg with
    | true, false -> Positive
    | false, true -> Negative
    | true, true | false, false -> Non_unate
  end

let min_derate = 0.8
let default_port_drive = 0.5 (* ns/pF when no set_drive given *)
let transition_delay_factor = 0.3

(* ------------------------------------------------------------------ *)
(* The mode-independent graph: arc structure, adjacency, topological
   order and the static parts of the delay/load model.                 *)

type const_base = {
  cb_constants : (int * Mm_netlist.Logic.tri) array;
  cb_disabled : int array;
}

type t = {
  sk_design : Design.t;
  sk_n_pins : int;
  sk_n_arcs : int;
  (* One slot per arc, indexed by arc id. *)
  arc_src : int array;
  arc_dst : int array;
  arc_kind : arc_kind array;
  arc_inst : int array;
  arc_unate : unate array;
  (* Delay-model statics: base intrinsic delay, the drive-resistance
     multiplier on the driven load (cell arcs), the lumped capacitance
     a driving port sees (net arcs), and the load-model entry of the
     arc's driver pin. *)
  arc_base : float array;
  arc_scale : float array;
  arc_caps : float array;
  arc_ldm : int array;
  (* CSR adjacency. Row [row.(p) .. row.(p+1)-1] holds the arc ids
     leaving (entering) pin p in descending id order — the iteration
     order of the adjacency lists this arena replaced, which downstream
     tie-breaks (topo queue, path backtracking) depend on. *)
  out_row : int array;
  out_adj : int array;
  in_row : int array;
  in_adj : int array;
  topo : int array;
  topo_pos : int array;
  broken : int list;
  sk_endpoints : endpoint list;
  sk_startpoints : startpoint list;
  clock_pins : Bytes.t;
  (* Load-model entries: for every pin whose driven load matters (cell
     arc drivers and net drivers), the static sink capacitance, the
     wire-load estimate, and the sink pins (for per-mode set_load
     accumulation, in net_sinks order). *)
  ldm_pin : int array;
  ldm_pin_caps : float array;
  ldm_wire_cap : float array;
  ldm_sink_row : int array;
  ldm_sinks : int array;
  (* Load-model entries that fill the per-mode [loads] array, in
     iter_nets driver order. *)
  ldm_drivers : int array;
  (* Constant propagation with no cases and no disables, filled on
     first use by Const_prop (not here, so compile time stays the
     arena's own). *)
  const_base : const_base option Atomic.t;
}

type delays = {
  dmin : float array;
  dmax : float array;
  loads : float array;
}

(* Environment constraint lookup tables built from the mode. *)
type env_tables = {
  extra_load : (Design.pin_id, float) Hashtbl.t;
  port_drive : (Design.pin_id, float) Hashtbl.t;
  port_transition : (Design.pin_id, float) Hashtbl.t;
}

let env_tables (mode : Mode.t) =
  let extra_load = Hashtbl.create 16
  and port_drive = Hashtbl.create 16
  and port_transition = Hashtbl.create 16 in
  List.iter
    (fun (e : Mode.env_constraint) ->
      let table =
        match e.envc_kind with
        | Mm_sdc.Ast.Load -> extra_load
        | Mm_sdc.Ast.Drive -> port_drive
        | Mm_sdc.Ast.Input_transition -> port_transition
      in
      (* For max-delay purposes the max value dominates; store the
         worst (largest). *)
      let prev = Option.value ~default:0. (Hashtbl.find_opt table e.envc_pin) in
      Hashtbl.replace table e.envc_pin (Float.max prev e.envc_value))
    mode.Mode.envs;
  { extra_load; port_drive; port_transition }

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

(* One cell's comb arcs, in [Lib_cell.comb_arcs] order, with their
   unateness: every instance of the cell shares them. *)
type cell_arcs = {
  ca_in : int array;
  ca_out : int array;
  ca_unate : unate array;
}

let cell_arcs cell =
  let arcs = Array.of_list (Lib_cell.comb_arcs cell) in
  {
    ca_in = Array.map fst arcs;
    ca_out = Array.map snd arcs;
    ca_unate =
      Array.map
        (fun (i, o) ->
          match Lib_cell.function_of_output cell o with
          | Some f -> unateness f i
          | None -> Non_unate)
        arcs;
  }

let compile design =
  let wlm = Wire_load.default in
  let n = Design.n_pins design in
  let n_insts = Design.n_insts design and n_nets = Design.n_nets design in
  (* Each cell's arcs once per compile, keyed by name and checked by
     identity (two libraries may both name a cell INV). *)
  let memo : (string, Lib_cell.t * cell_arcs) Hashtbl.t = Hashtbl.create 32 in
  let arcs_of cell =
    match Hashtbl.find_opt memo cell.Lib_cell.cell_name with
    | Some (c, a) when c == cell -> a
    | _ ->
      let a = cell_arcs cell in
      Hashtbl.replace memo cell.Lib_cell.cell_name (cell, a);
      a
  in
  let inst_arcs = Array.init n_insts (fun i -> arcs_of (Design.inst_cell design i)) in
  (* Each net's sink capacitance, summed once in sink order. *)
  let net_caps =
    Array.init n_nets (fun net ->
        let acc = ref 0. in
        Design.iter_net_sinks design net (fun s ->
            acc := !acc +. Design.pin_cap design s);
        !acc)
  in
  (* Arc ids run over instances (comb arcs, then launch arcs), then
     over driven nets' sinks: count them, then write each arc into its
     slot. *)
  let n_arcs = ref 0 and n_driven = ref 0 in
  for inst = 0 to n_insts - 1 do
    n_arcs := !n_arcs + Array.length inst_arcs.(inst).ca_in;
    match (Design.inst_cell design inst).Lib_cell.seq with
    | Some seq -> n_arcs := !n_arcs + List.length seq.Lib_cell.q_pins
    | None -> ()
  done;
  for net = 0 to n_nets - 1 do
    if Design.net_driver design net <> None then begin
      incr n_driven;
      n_arcs := !n_arcs + Design.net_fanout design net
    end
  done;
  let n_arcs = !n_arcs in
  let arc_src = Array.make n_arcs 0
  and arc_dst = Array.make n_arcs 0
  and arc_kind = Array.make n_arcs Comb
  and arc_inst = Array.make n_arcs 0
  and arc_unate = Array.make n_arcs Positive
  and arc_base = Array.make n_arcs 0.
  and arc_scale = Array.make n_arcs 0.
  and arc_caps = Array.make n_arcs 0.
  and arc_ldm = Array.make n_arcs 0 in
  let next = ref 0 in
  let add_arc src dst kind inst unate base scale caps ldm =
    let aid = !next in
    incr next;
    arc_src.(aid) <- src;
    arc_dst.(aid) <- dst;
    arc_kind.(aid) <- kind;
    arc_inst.(aid) <- inst;
    arc_unate.(aid) <- unate;
    arc_base.(aid) <- base;
    arc_scale.(aid) <- scale;
    arc_caps.(aid) <- caps;
    arc_ldm.(aid) <- ldm
  in
  (* Load-model entries, one per driving pin, numbered on first use. *)
  let ldm_of_pin = Array.make n (-1) and ldm_pins = Array.make n 0 in
  let ldm_n = ref 0 in
  let ldm_entry pin =
    if ldm_of_pin.(pin) >= 0 then ldm_of_pin.(pin)
    else if Design.pin_net design pin = None then -1
    else begin
      let e = !ldm_n in
      incr ldm_n;
      ldm_of_pin.(pin) <- e;
      ldm_pins.(e) <- pin;
      e
    end
  in
  let endpoints = ref [] and startpoints = ref [] in
  let clock_pins = Bytes.make n '\000' in
  for inst = 0 to n_insts - 1 do
    let cell = Design.inst_cell design inst and ca = inst_arcs.(inst) in
    for k = 0 to Array.length ca.ca_in - 1 do
      let dst = Design.inst_pin design inst ca.ca_out.(k) in
      add_arc
        (Design.inst_pin design inst ca.ca_in.(k))
        dst Comb inst ca.ca_unate.(k) cell.Lib_cell.intrinsic
        cell.Lib_cell.drive_res 0. (ldm_entry dst)
    done;
    match cell.Lib_cell.seq with
    | None -> ()
    | Some seq ->
      let cp = Design.inst_pin design inst seq.Lib_cell.clock_pin in
      let outputs =
        List.map (fun q -> Design.inst_pin design inst q) seq.Lib_cell.q_pins
      in
      (* Launched data can rise or fall regardless of the clock edge. *)
      List.iter
        (fun q ->
          Bytes.set clock_pins cp '\001';
          add_arc cp q Launch inst Non_unate seq.Lib_cell.clk_to_q
            cell.Lib_cell.drive_res 0. (ldm_entry q))
        outputs;
      startpoints :=
        Sp_reg
          {
            sp_clock = cp;
            sp_inst = inst;
            sp_outputs = outputs;
            sp_clk_to_q = seq.Lib_cell.clk_to_q;
            sp_edge = seq.Lib_cell.clock_edge;
          }
        :: !startpoints;
      List.iter
        (fun d ->
          endpoints :=
            Ep_reg
              {
                ep_data = Design.inst_pin design inst d;
                ep_clock = cp;
                ep_inst = inst;
                ep_setup = seq.Lib_cell.setup;
                ep_hold = seq.Lib_cell.hold;
                ep_edge = seq.Lib_cell.clock_edge;
              }
            :: !endpoints)
        seq.Lib_cell.data_pins
  done;
  (* Net arcs. *)
  let ldm_drivers = Array.make !n_driven 0 and driven = ref 0 in
  for net = 0 to n_nets - 1 do
    match Design.net_driver design net with
    | None -> ()
    | Some drv ->
      ldm_drivers.(!driven) <- ldm_entry drv;
      incr driven;
      let fanout = Design.net_fanout design net and pin_caps = net_caps.(net) in
      let base = Wire_load.net_delay wlm ~fanout ~pin_caps in
      let caps = pin_caps +. Wire_load.wire_cap wlm fanout in
      Design.iter_net_sinks design net (fun s ->
          add_arc drv s Net (-1) Positive base 0. caps (-1))
  done;
  (* Port start/endpoints. *)
  Design.iter_ports design (fun p ->
      match Design.port_dir design p with
      | Design.In ->
        startpoints :=
          Sp_port { sp_pin = Design.port_pin design p } :: !startpoints
      | Design.Out ->
        endpoints := Ep_port { ep_pin = Design.port_pin design p } :: !endpoints);
  (* CSR rows, filled from the highest arc id down so each row keeps
     the descending-id order of the adjacency lists it replaces. *)
  let build_csr key =
    let row = Array.make (n + 1) 0 in
    for aid = 0 to n_arcs - 1 do
      row.(key.(aid) + 1) <- row.(key.(aid) + 1) + 1
    done;
    for p = 1 to n do
      row.(p) <- row.(p) + row.(p - 1)
    done;
    let adj = Array.make n_arcs 0 in
    let cursor = Array.sub row 0 n in
    for aid = n_arcs - 1 downto 0 do
      let p = key.(aid) in
      adj.(cursor.(p)) <- aid;
      cursor.(p) <- cursor.(p) + 1
    done;
    row, adj
  in
  let out_row, out_adj = build_csr arc_src in
  let in_row, in_adj = build_csr arc_dst in
  (* Kahn topological sort, with [topo] itself as the FIFO queue; cycles
     broken by discarding the remaining arcs (recorded for
     diagnostics). *)
  let indeg = Array.make n 0 in
  Array.iter (fun d -> indeg.(d) <- indeg.(d) + 1) arc_dst;
  let topo = Array.make n (-1) in
  let pos = ref 0 in
  for p = 0 to n - 1 do
    if indeg.(p) = 0 then begin
      topo.(!pos) <- p;
      incr pos
    end
  done;
  let head = ref 0 in
  while !head < !pos do
    let p = topo.(!head) in
    incr head;
    for k = out_row.(p) to out_row.(p + 1) - 1 do
      let dst = arc_dst.(out_adj.(k)) in
      indeg.(dst) <- indeg.(dst) - 1;
      if indeg.(dst) = 0 then begin
        topo.(!pos) <- dst;
        incr pos
      end
    done
  done;
  let broken = ref [] in
  if !pos < n then begin
    (* Combinational loop: the unresolved pins keep a nonzero indegree.
       Append them in id order and record their incoming arcs from other
       unresolved pins as broken. *)
    let placed = Array.make n false in
    Array.iteri (fun i p -> if i < !pos && p >= 0 then placed.(p) <- true) topo;
    for p = 0 to n - 1 do
      if not placed.(p) then begin
        topo.(!pos) <- p;
        incr pos;
        for k = in_row.(p) to in_row.(p + 1) - 1 do
          let aid = in_adj.(k) in
          if not placed.(arc_src.(aid)) then broken := aid :: !broken
        done;
        placed.(p) <- true
      end
    done
  end;
  let topo_pos = Array.make n 0 in
  Array.iteri (fun i p -> topo_pos.(p) <- i) topo;
  (* Load-model arenas: an entry's pin drives its net, whose sinks and
     capacitance the entry carries. *)
  let ldm_n = !ldm_n in
  let ldm_net e = Option.get (Design.pin_net design ldm_pins.(e)) in
  let ldm_pin = Array.make (max 1 ldm_n) 0
  and ldm_pin_caps = Array.make (max 1 ldm_n) 0.
  and ldm_wire_cap = Array.make (max 1 ldm_n) 0. in
  let ldm_sink_row = Array.make (ldm_n + 1) 0 in
  for e = 0 to ldm_n - 1 do
    let net = ldm_net e in
    ldm_pin.(e) <- ldm_pins.(e);
    ldm_pin_caps.(e) <- net_caps.(net);
    ldm_wire_cap.(e) <- Wire_load.wire_cap wlm (Design.net_fanout design net);
    ldm_sink_row.(e + 1) <- ldm_sink_row.(e) + Design.net_fanout design net
  done;
  let ldm_sinks = Array.make (max 1 ldm_sink_row.(ldm_n)) 0 in
  for e = 0 to ldm_n - 1 do
    let k = ref ldm_sink_row.(e) in
    Design.iter_net_sinks design (ldm_net e) (fun s ->
        ldm_sinks.(!k) <- s;
        incr k)
  done;
  {
    sk_design = design;
    sk_n_pins = n;
    sk_n_arcs = n_arcs;
    arc_src;
    arc_dst;
    arc_kind;
    arc_inst;
    arc_unate;
    arc_base;
    arc_scale;
    arc_caps;
    arc_ldm;
    out_row;
    out_adj;
    in_row;
    in_adj;
    topo;
    topo_pos;
    broken = !broken;
    sk_endpoints = List.rev !endpoints;
    sk_startpoints = List.rev !startpoints;
    clock_pins;
    ldm_pin;
    ldm_pin_caps;
    ldm_wire_cap;
    ldm_sink_row;
    ldm_sinks;
    ldm_drivers;
    const_base = Atomic.make None;
  }

(* ------------------------------------------------------------------ *)
(* Per-mode delays                                                     *)

let delays g (mode : Mode.t) =
  let env = env_tables mode in
  let find tbl pin = Option.value ~default:0. (Hashtbl.find_opt tbl pin) in
  let ldm_n = Array.length g.ldm_pin in
  let ldval = Array.make (max 1 ldm_n) 0. in
  for e = 0 to ldm_n - 1 do
    (* Total capacitive load seen by the entry's pin: connected sink
       pin caps plus any set_load on the net's pins plus estimated wire
       cap — term order matters bit-for-bit. *)
    let extra = ref 0. in
    for k = g.ldm_sink_row.(e) to g.ldm_sink_row.(e + 1) - 1 do
      extra := !extra +. find env.extra_load g.ldm_sinks.(k)
    done;
    let extra = !extra +. find env.extra_load g.ldm_pin.(e) in
    ldval.(e) <- g.ldm_pin_caps.(e) +. extra +. g.ldm_wire_cap.(e)
  done;
  let loads = Array.make g.sk_n_pins 0. in
  Array.iter (fun e -> loads.(g.ldm_pin.(e)) <- ldval.(e)) g.ldm_drivers;
  let dmin = Array.make (max 1 g.sk_n_arcs) 0.
  and dmax = Array.make (max 1 g.sk_n_arcs) 0. in
  for aid = 0 to g.sk_n_arcs - 1 do
    let d =
      if g.arc_kind.(aid) = Net then begin
        (* A port driving the net contributes its external drive and
           transition there, since it has no cell arc of its own. *)
        let drv = g.arc_src.(aid) in
        let port_extra =
          match Design.pin_owner g.sk_design drv with
          | Design.Port_pin _ ->
            let drive =
              Option.value ~default:default_port_drive
                (Hashtbl.find_opt env.port_drive drv)
            in
            let transition = find env.port_transition drv in
            (drive *. g.arc_caps.(aid))
            +. (transition *. transition_delay_factor)
          | Design.Inst_pin _ -> 0.
        in
        g.arc_base.(aid) +. port_extra
      end
      else begin
        let load = if g.arc_ldm.(aid) < 0 then 0. else ldval.(g.arc_ldm.(aid)) in
        g.arc_base.(aid) +. (g.arc_scale.(aid) *. load)
      end
    in
    dmax.(aid) <- d;
    dmin.(aid) <- d *. min_derate
  done;
  { dmin; dmax; loads }

(* ------------------------------------------------------------------ *)
(* Graph cache: one compiled arena per live design, so analysing N
   modes (or N refinement iterations) compiles once. Keyed by physical
   identity — a Design.t is immutable after construction — and bounded
   because benchmarks churn through many generated designs.            *)

let cache_bound = 8
let cache_lock = Mutex.create ()
let cache : (Design.t * t) list ref = ref []

(* A miss compiles under the lock, so callers racing on a cold design
   wait for the one compile instead of each running their own. *)
let skeleton design =
  Mutex.protect cache_lock (fun () ->
      match List.find_opt (fun (d, _) -> d == design) !cache with
      | Some (_, g) -> g
      | None ->
        let g =
          Obs.with_span "sta.compile"
            ~attrs:[ "pins", string_of_int (Design.n_pins design) ]
            (fun () -> compile design)
        in
        cache :=
          (design, g) :: List.filteri (fun i _ -> i < cache_bound - 1) !cache;
        g)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let n_pins t = t.sk_n_pins
let n_arcs t = t.sk_n_arcs

let arc_src t aid = t.arc_src.(aid)
let arc_dst t aid = t.arc_dst.(aid)
let arc_kind t aid = t.arc_kind.(aid)
let arc_inst t aid = t.arc_inst.(aid)
let arc_unate t aid = t.arc_unate.(aid)

let iter_out t pin f =
  for k = t.out_row.(pin) to t.out_row.(pin + 1) - 1 do
    f t.out_adj.(k)
  done

let iter_in t pin f =
  for k = t.in_row.(pin) to t.in_row.(pin + 1) - 1 do
    f t.in_adj.(k)
  done

let fold_in t pin init f =
  let acc = ref init in
  for k = t.in_row.(pin) to t.in_row.(pin + 1) - 1 do
    acc := f !acc t.in_adj.(k)
  done;
  !acc

let find_map_in t pin f =
  let lo = t.in_row.(pin) and hi = t.in_row.(pin + 1) in
  let rec go k =
    if k >= hi then None
    else
      match f t.in_adj.(k) with
      | Some _ as r -> r
      | None -> go (k + 1)
  in
  go lo

let endpoint_pin = function
  | Ep_reg { ep_data; _ } -> ep_data
  | Ep_port { ep_pin } -> ep_pin

let startpoint_pin = function
  | Sp_reg { sp_clock; _ } -> sp_clock
  | Sp_port { sp_pin } -> sp_pin

let endpoint_pins t = List.map endpoint_pin t.sk_endpoints
