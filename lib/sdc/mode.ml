module Design = Mm_netlist.Design

type clock = {
  clk_name : string;
  period : float;
  waveform : float * float;
  sources : Design.pin_id list;
  generated : generated option;
}

and generated = {
  master : string;
  g_divide : int;
  g_multiply : int;
  g_invert : bool;
}

type clock_attr = {
  src_latency_min : float option;
  src_latency_max : float option;
  net_latency_min : float option;
  net_latency_max : float option;
  uncertainty_setup : float option;
  uncertainty_hold : float option;
  transition_min : float option;
  transition_max : float option;
  propagated : bool;
}

let empty_attr =
  {
    src_latency_min = None;
    src_latency_max = None;
    net_latency_min = None;
    net_latency_max = None;
    uncertainty_setup = None;
    uncertainty_hold = None;
    transition_min = None;
    transition_max = None;
    propagated = false;
  }

type io_delay = {
  iod_input : bool;
  iod_pin : Design.pin_id;
  iod_clock : string option;
  iod_clock_fall : bool;
  iod_minmax : Ast.minmax;
  iod_value : float;
  iod_add : bool;
}

type point =
  | P_pin of Design.pin_id
  | P_clock of string
  | P_inst of Design.inst_id

type exc_kind =
  | False_path
  | Multicycle of { mult : int; start : bool }
  | Min_delay of float
  | Max_delay of float

type edge_sel = Any_edge | Rise_edge | Fall_edge

type exc = {
  exc_kind : exc_kind;
  exc_setup : bool;
  exc_hold : bool;
  exc_from : point list option;
  exc_from_edge : edge_sel;
  exc_through : Design.pin_id list list;
  exc_to : point list option;
  exc_to_edge : edge_sel;
}

let exc ?(setup = true) ?(hold = true) ?from_ ?(from_edge = Any_edge) ?(through = [])
    ?to_ ?(to_edge = Any_edge) exc_kind =
  {
    exc_kind;
    exc_setup = setup;
    exc_hold = hold;
    exc_from = from_;
    exc_from_edge = from_edge;
    exc_through = through;
    exc_to = to_;
    exc_to_edge = to_edge;
  }

type clock_group = {
  grp_kind : Ast.exclusivity;
  grp_name : string option;
  grp_clocks : string list list;
}

type clock_sense = {
  cs_stop : bool;
  cs_clocks : string list option;
  cs_pins : Design.pin_id list;
}

type env_constraint = {
  envc_kind : Ast.env_kind;
  envc_pin : Design.pin_id;
  envc_minmax : Ast.minmax;
  envc_value : float;
}

type disable =
  | Dis_pin of Design.pin_id
  | Dis_inst of Design.inst_id * string option * string option

type drc_limit = {
  drcl_kind : Ast.drc_kind;
  drcl_pin : Design.pin_id;
  drcl_value : float;
}

type t = {
  mode_name : string;
  design : Design.t;
  clocks : clock list;
  attrs : (string * clock_attr) list;
  io_delays : io_delay list;
  cases : (Design.pin_id * bool) list;
  disables : disable list;
  exceptions : exc list;
  groups : clock_group list;
  senses : clock_sense list;
  envs : env_constraint list;
  drcs : drc_limit list;
}

let empty design mode_name =
  {
    mode_name;
    design;
    clocks = [];
    attrs = [];
    io_delays = [];
    cases = [];
    disables = [];
    exceptions = [];
    groups = [];
    senses = [];
    envs = [];
    drcs = [];
  }

let find_clock t name =
  List.find_opt (fun c -> String.equal c.clk_name name) t.clocks

let attr_of_clock t name =
  match List.assoc_opt name t.attrs with
  | Some a -> a
  | None -> empty_attr

let clock_names t = List.map (fun c -> c.clk_name) t.clocks

let clock_key c =
  let srcs = String.concat "," (List.map string_of_int c.sources) in
  let r, f = c.waveform in
  let gen =
    match c.generated with
    | None -> ""
    | Some g ->
      Printf.sprintf "gen:%s/%d*%d%s" g.master g.g_divide g.g_multiply
        (if g.g_invert then "~" else "")
  in
  Printf.sprintf "%s@%g@%g,%g@%s" srcs c.period r f gen

let case_value t pin =
  List.assoc_opt pin t.cases

let point_compare a b =
  let rank = function P_pin _ -> 0 | P_clock _ -> 1 | P_inst _ -> 2 in
  match a, b with
  | P_pin x, P_pin y -> compare x y
  | P_clock x, P_clock y -> String.compare x y
  | P_inst x, P_inst y -> compare x y
  | _ -> compare (rank a) (rank b)

let points_equal a b =
  let norm l = List.sort_uniq point_compare l in
  match a, b with
  | None, None -> true
  | Some a, Some b -> norm a = norm b
  | None, Some _ | Some _, None -> false

let exc_equal a b =
  a.exc_kind = b.exc_kind
  && a.exc_setup = b.exc_setup
  && a.exc_hold = b.exc_hold
  && a.exc_from_edge = b.exc_from_edge
  && a.exc_to_edge = b.exc_to_edge
  && points_equal a.exc_from b.exc_from
  && points_equal a.exc_to b.exc_to
  && List.map (List.sort_uniq compare) a.exc_through
     = List.map (List.sort_uniq compare) b.exc_through

let io_delay_equal (a : io_delay) (b : io_delay) =
  a.iod_input = b.iod_input
  && a.iod_pin = b.iod_pin
  && a.iod_clock = b.iod_clock
  && a.iod_clock_fall = b.iod_clock_fall
  && a.iod_minmax = b.iod_minmax
  && Float.equal a.iod_value b.iod_value

(* ------------------------------------------------------------------ *)
(* Serialisation back to SDC                                           *)

let query_of_pins design pins =
  match pins with
  | [] -> []
  | _ -> [ Ast.Get_pins (List.map (Design.pin_name design) pins) ]

let query_of_points design points =
  let pins, clocks, insts =
    List.fold_left
      (fun (ps, cs, is) -> function
        | P_pin p -> Design.pin_name design p :: ps, cs, is
        | P_clock c -> ps, c :: cs, is
        | P_inst i -> ps, cs, Design.inst_name design i :: is)
      ([], [], []) points
  in
  (if clocks = [] then [] else [ Ast.Get_clocks (List.rev clocks) ])
  @ (if pins = [] then [] else [ Ast.Get_pins (List.rev pins) ])
  @ if insts = [] then [] else [ Ast.Get_cells (List.rev insts) ]

let spec_of_exc design e =
  {
    Ast.ps_from = Option.map (query_of_points design) e.exc_from;
    ps_rise_from = e.exc_from_edge = Rise_edge;
    ps_fall_from = e.exc_from_edge = Fall_edge;
    ps_through = List.map (query_of_pins design) e.exc_through;
    ps_to = Option.map (query_of_points design) e.exc_to;
    ps_rise_to = e.exc_to_edge = Rise_edge;
    ps_fall_to = e.exc_to_edge = Fall_edge;
    ps_setup = e.exc_setup;
    ps_hold = e.exc_hold;
  }

let commands_of_exc design e =
  let spec = spec_of_exc design e in
  match e.exc_kind with
  | False_path -> Ast.Set_false_path spec
  | Multicycle { mult; start } ->
    Ast.Set_multicycle_path
      { mcp_mult = mult; mcp_start = start; mcp_end = not start; mcp_spec = spec }
  | Min_delay v -> Ast.Set_min_delay { db_value = v; db_spec = spec }
  | Max_delay v -> Ast.Set_max_delay { db_value = v; db_spec = spec }

let port_query design pin = Ast.Get_ports [ Design.pin_name design pin ]

let commands_of_attr name (a : clock_attr) =
  let clockq = [ Ast.Get_clocks [ name ] ] in
  let lat source minmax v =
    Ast.Set_clock_latency
      { lat_value = v; lat_source = source; lat_minmax = minmax; lat_objects = clockq }
  in
  let pair ~mk vmin vmax =
    match vmin, vmax with
    | None, None -> []
    | Some a, Some b when Float.equal a b -> [ mk Ast.Both a ]
    | _ ->
      (match vmin with Some v -> [ mk Ast.Min v ] | None -> [])
      @ (match vmax with Some v -> [ mk Ast.Max v ] | None -> [])
  in
  pair ~mk:(fun mm v -> lat true mm v) a.src_latency_min a.src_latency_max
  @ pair ~mk:(fun mm v -> lat false mm v) a.net_latency_min a.net_latency_max
  @ (match a.uncertainty_setup, a.uncertainty_hold with
    | None, None -> []
    | Some s, Some h when Float.equal s h ->
      [
        Ast.Set_clock_uncertainty
          { unc_value = s; unc_setup = true; unc_hold = true; unc_objects = clockq };
      ]
    | s, h ->
      (match s with
      | Some v ->
        [
          Ast.Set_clock_uncertainty
            { unc_value = v; unc_setup = true; unc_hold = false; unc_objects = clockq };
        ]
      | None -> [])
      @ (match h with
        | Some v ->
          [
            Ast.Set_clock_uncertainty
              { unc_value = v; unc_setup = false; unc_hold = true; unc_objects = clockq };
          ]
        | None -> []))
  @ pair
      ~mk:(fun mm v ->
        Ast.Set_clock_transition { tra_value = v; tra_minmax = mm; tra_clocks = clockq })
      a.transition_min a.transition_max
  @ if a.propagated then [ Ast.Set_propagated_clock clockq ] else []

let queries_of_mixed_pins design pins =
  let ports, others =
    List.partition
      (fun p ->
        match Design.pin_owner design p with
        | Design.Port_pin _ -> true
        | Design.Inst_pin _ -> false)
      pins
  in
  (if ports = [] then []
   else [ Ast.Get_ports (List.map (Design.pin_name design) ports) ])
  @
  if others = [] then []
  else [ Ast.Get_pins (List.map (Design.pin_name design) others) ]

type section =
  | Sec_clock of clock
  | Sec_attr of clock
  | Sec_env of env_constraint
  | Sec_drc of drc_limit
  | Sec_case of Design.pin_id * bool
  | Sec_disable of disable
  | Sec_io of io_delay
  | Sec_group of clock_group
  | Sec_sense of clock_sense
  | Sec_exc of int * exc

let to_commands_tagged t =
  let design = t.design in
  let clock_cmds =
    List.concat_map
      (fun c ->
        let sources = queries_of_mixed_pins design c.sources in
        match c.generated with
        | None ->
          [
            ( Sec_clock c,
              Ast.Create_clock
                {
                  cc_name = Some c.clk_name;
                  period = c.period;
                  waveform =
                    (let r, f = c.waveform in
                     if Float.equal r 0. && Float.equal f (c.period /. 2.) then
                       None
                     else Some (r, f));
                  add = true;
                  sources;
                  comment = None;
                } );
          ]
        | Some g ->
          [
            ( Sec_clock c,
              Ast.Create_generated_clock
                {
                  gc_name = Some c.clk_name;
                  gc_source = sources;
                  master_clock = Some g.master;
                  divide_by = g.g_divide;
                  multiply_by = g.g_multiply;
                  invert = g.g_invert;
                  gc_add = true;
                  gc_targets = sources;
                } );
          ])
      t.clocks
  in
  let attr_cmds =
    List.concat_map
      (fun c ->
        List.map
          (fun cmd -> Sec_attr c, cmd)
          (commands_of_attr c.clk_name (attr_of_clock t c.clk_name)))
      t.clocks
  in
  let env_cmds =
    List.map
      (fun e ->
        ( Sec_env e,
          Ast.Set_env
            {
              env_kind = e.envc_kind;
              env_value = e.envc_value;
              env_minmax = e.envc_minmax;
              env_objects = [ port_query design e.envc_pin ];
            } ))
      t.envs
  in
  let case_cmds =
    List.map
      (fun (pin, v) ->
        ( Sec_case (pin, v),
          Ast.Set_case_analysis
            { ca_value = v; ca_objects = [ Ast.Name (Design.pin_name design pin) ] }
        ))
      t.cases
  in
  let disable_cmds =
    List.map
      (fun d ->
        ( Sec_disable d,
          match d with
          | Dis_pin pin ->
            Ast.Set_disable_timing
              {
                dis_objects = [ Ast.Name (Design.pin_name design pin) ];
                dis_from = None;
                dis_to = None;
              }
          | Dis_inst (inst, from_, to_) ->
            Ast.Set_disable_timing
              {
                dis_objects = [ Ast.Get_cells [ Design.inst_name design inst ] ];
                dis_from = from_;
                dis_to = to_;
              } ))
      t.disables
  in
  let io_cmds =
    List.map
      (fun d ->
        let cmd =
          {
            Ast.io_value = d.iod_value;
            io_clock = d.iod_clock;
            io_clock_fall = d.iod_clock_fall;
            io_minmax = d.iod_minmax;
            io_add_delay = d.iod_add;
            io_ports = [ port_query design d.iod_pin ];
          }
        in
        ( Sec_io d,
          if d.iod_input then Ast.Set_input_delay cmd
          else Ast.Set_output_delay cmd ))
      t.io_delays
  in
  let group_cmds =
    List.map
      (fun g ->
        ( Sec_group g,
          Ast.Set_clock_groups
            {
              cg_name = g.grp_name;
              cg_kind = g.grp_kind;
              cg_groups =
                List.map (fun names -> [ Ast.Get_clocks names ]) g.grp_clocks;
            } ))
      t.groups
  in
  let sense_cmds =
    List.map
      (fun s ->
        ( Sec_sense s,
          Ast.Set_clock_sense
            {
              sense_stop = s.cs_stop;
              sense_clocks =
                Option.map (fun names -> [ Ast.Get_clocks names ]) s.cs_clocks;
              sense_pins =
                [ Ast.Get_pins (List.map (Design.pin_name design) s.cs_pins) ];
            } ))
      t.senses
  in
  let drc_cmds =
    List.map
      (fun l ->
        ( Sec_drc l,
          Ast.Set_drc
            {
              drc_kind = l.drcl_kind;
              drc_value = l.drcl_value;
              drc_objects = [ Ast.Name (Design.pin_name design l.drcl_pin) ];
            } ))
      t.drcs
  in
  let exc_cmds =
    List.mapi (fun i e -> Sec_exc (i, e), commands_of_exc design e) t.exceptions
  in
  clock_cmds @ attr_cmds @ env_cmds @ drc_cmds @ case_cmds @ disable_cmds
  @ io_cmds @ group_cmds @ sense_cmds @ exc_cmds

let to_commands t = List.map snd (to_commands_tagged t)

let to_sdc t =
  Writer.write_commands ~header:("mode " ^ t.mode_name) (to_commands t)
