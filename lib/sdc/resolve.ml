module Design = Mm_netlist.Design
module Glob = Mm_util.Glob
module Diag = Mm_util.Diag
module Obs = Mm_util.Obs
module Metrics = Mm_util.Metrics
open Ast

type result = { mode : Mode.t; diags : Diag.t list }

let warnings r = Diag.messages r.diags

(* Expansion result of one object query. *)
type objset = {
  o_pins : Design.pin_id list;
  o_insts : Design.inst_id list;
  o_clocks : string list;
}

let empty_objset = { o_pins = []; o_insts = []; o_clocks = [] }

let union a b =
  {
    o_pins = a.o_pins @ b.o_pins;
    o_insts = a.o_insts @ b.o_insts;
    o_clocks = a.o_clocks @ b.o_clocks;
  }

type state = {
  design : Design.t;
  mutable clocks : Mode.clock list; (* reversed *)
  attrs : (string, Mode.clock_attr) Hashtbl.t;
  mutable io_delays : Mode.io_delay list; (* reversed *)
  mutable cases : (Design.pin_id * bool) list;
  mutable disables : Mode.disable list;
  mutable exceptions : Mode.exc list;
  mutable groups : Mode.clock_group list;
  mutable senses : Mode.clock_sense list;
  mutable envs : Mode.env_constraint list;
  mutable drcs : Mode.drc_limit list;
  mutable loc : Diag.loc option; (* the command being resolved *)
  diags : Diag.collector;
}

let warn st ~code fmt = Diag.addf st.diags ?loc:st.loc Diag.Warning ~code fmt

let clock_names st = List.map (fun c -> c.Mode.clk_name) st.clocks

(* ------------------------------------------------------------------ *)
(* Query expansion                                                     *)

let match_ports st pats =
  let d = st.design in
  List.concat_map
    (fun pat ->
      let g = Glob.compile pat in
      match Glob.literal g with
      | Some name -> (
        match Design.find_port d name with
        | Some p -> [ Design.port_pin d p ]
        | None ->
          warn st ~code:"sdc.no-match" "get_ports: no port matches %s" pat;
          [])
      | None ->
        let acc = ref [] in
        Design.iter_ports d (fun p ->
            if Glob.matches g (Design.port_name d p) then
              acc := Design.port_pin d p :: !acc);
        if !acc = [] then warn st ~code:"sdc.no-match" "get_ports: no port matches %s" pat;
        List.rev !acc)
    pats

let match_pins st pats =
  let d = st.design in
  List.concat_map
    (fun pat ->
      let g = Glob.compile pat in
      match Glob.literal g with
      | Some name -> (
        match Design.pin_of_name d name with
        | Some p -> [ p ]
        | None ->
          warn st ~code:"sdc.no-match" "get_pins: no pin matches %s" pat;
          [])
      | None ->
        let acc = ref [] in
        Design.iter_pins d (fun p ->
            match Design.pin_owner d p with
            | Design.Inst_pin _ ->
              if Glob.matches g (Design.pin_name d p) then acc := p :: !acc
            | Design.Port_pin _ -> ());
        if !acc = [] then warn st ~code:"sdc.no-match" "get_pins: no pin matches %s" pat;
        List.rev !acc)
    pats

let match_cells st pats =
  let d = st.design in
  List.concat_map
    (fun pat ->
      let g = Glob.compile pat in
      match Glob.literal g with
      | Some name -> (
        match Design.find_inst d name with
        | Some i -> [ i ]
        | None ->
          warn st ~code:"sdc.no-match" "get_cells: no cell matches %s" pat;
          [])
      | None ->
        let acc = ref [] in
        Design.iter_insts d (fun i ->
            if Glob.matches g (Design.inst_name d i) then acc := i :: !acc);
        if !acc = [] then warn st ~code:"sdc.no-match" "get_cells: no cell matches %s" pat;
        List.rev !acc)
    pats

let match_clocks st pats =
  let names = clock_names st in
  List.concat_map
    (fun pat ->
      let g = Glob.compile pat in
      let hits = List.filter (Glob.matches g) names in
      if hits = [] then warn st ~code:"sdc.no-match" "get_clocks: no clock matches %s" pat;
      hits)
    pats

let match_nets st pats =
  (* A net used as a timing object stands for its connected pins; the
     driver pin is the canonical representative for -through. *)
  let d = st.design in
  List.concat_map
    (fun pat ->
      let g = Glob.compile pat in
      let nets = ref [] in
      (match Glob.literal g with
      | Some name -> (
        match Design.find_net d name with
        | Some n -> nets := [ n ]
        | None -> warn st ~code:"sdc.no-match" "get_nets: no net matches %s" pat)
      | None ->
        Design.iter_nets d (fun n ->
            if Glob.matches g (Design.net_name d n) then nets := n :: !nets));
      List.concat_map
        (fun n ->
          match Design.net_driver d n with Some p -> [ p ] | None -> [])
        (List.rev !nets))
    pats

let all_registers st ~clock_pins =
  let d = st.design in
  let regs = Design.registers d in
  if clock_pins then
    {
      empty_objset with
      o_pins =
        List.map
          (fun i ->
            let cell = Design.inst_cell d i in
            match cell.Mm_netlist.Lib_cell.seq with
            | Some seq -> Design.inst_pin d i seq.Mm_netlist.Lib_cell.clock_pin
            | None -> assert false)
          regs;
    }
  else { empty_objset with o_insts = regs }

let resolve_name st n =
  (* Bare names: pin/port first (the common case in the paper), then
     clock, then instance, then net driver. *)
  match Design.pin_of_name st.design n with
  | Some p -> { empty_objset with o_pins = [ p ] }
  | None ->
    if List.exists (String.equal n) (clock_names st) then
      { empty_objset with o_clocks = [ n ] }
    else (
      match Design.find_inst st.design n with
      | Some i -> { empty_objset with o_insts = [ i ] }
      | None -> (
        match Design.find_net st.design n with
        | Some net -> (
          match Design.net_driver st.design net with
          | Some p -> { empty_objset with o_pins = [ p ] }
          | None ->
            warn st ~code:"sdc.no-driver" "object %s: net has no driver" n;
            empty_objset)
        | None ->
          warn st ~code:"sdc.unresolved-object" "unresolved object %s" n;
          empty_objset))

let expand_query st = function
  | Get_ports pats -> { empty_objset with o_pins = match_ports st pats }
  | Get_pins pats -> { empty_objset with o_pins = match_pins st pats }
  | Get_cells pats -> { empty_objset with o_insts = match_cells st pats }
  | Get_clocks pats -> { empty_objset with o_clocks = match_clocks st pats }
  | Get_nets pats -> { empty_objset with o_pins = match_nets st pats }
  | All_inputs ->
    let acc = ref [] in
    Design.iter_ports st.design (fun p ->
        if Design.port_dir st.design p = Design.In then
          acc := Design.port_pin st.design p :: !acc);
    { empty_objset with o_pins = List.rev !acc }
  | All_outputs ->
    let acc = ref [] in
    Design.iter_ports st.design (fun p ->
        if Design.port_dir st.design p = Design.Out then
          acc := Design.port_pin st.design p :: !acc);
    { empty_objset with o_pins = List.rev !acc }
  | All_clocks -> { empty_objset with o_clocks = clock_names st }
  | All_registers { clock_pins } -> all_registers st ~clock_pins
  | Name n -> resolve_name st n

let expand_objects st objs =
  List.fold_left (fun acc q -> union acc (expand_query st q)) empty_objset objs

let pins_only st ctx objs =
  let o = expand_objects st objs in
  if o.o_insts <> [] || o.o_clocks <> [] then
    warn st ~code:"sdc.type-mismatch" "%s: expected pins/ports only" ctx;
  o.o_pins

let clocks_only st ctx objs =
  let o = expand_objects st objs in
  if o.o_pins <> [] || o.o_insts <> [] then warn st ~code:"sdc.type-mismatch" "%s: expected clocks" ctx;
  o.o_clocks

(* ------------------------------------------------------------------ *)
(* Command application                                                 *)

let update_attr st name f =
  let cur =
    match Hashtbl.find_opt st.attrs name with
    | Some a -> a
    | None -> Mode.empty_attr
  in
  Hashtbl.replace st.attrs name (f cur)

let add_clock st (c : Mode.clock) ~add =
  (* Without -add, a new clock displaces existing clocks sharing any
     source pin (standard SDC semantics). Same-name clocks are always
     replaced. *)
  let displaced existing =
    String.equal existing.Mode.clk_name c.clk_name
    || (not add)
       && existing.Mode.sources <> []
       && List.exists (fun s -> List.mem s existing.Mode.sources) c.sources
  in
  let removed = List.filter displaced st.clocks in
  List.iter
    (fun old ->
      if not (String.equal old.Mode.clk_name c.clk_name) then
        warn st ~code:"sdc.clock-displaced" "clock %s displaced by %s (no -add)" old.Mode.clk_name
          c.clk_name)
    removed;
  st.clocks <- c :: List.filter (fun e -> not (displaced e)) st.clocks

let apply_create_clock st (c : create_clock) =
  let sources = pins_only st "create_clock" c.sources in
  let name =
    match c.cc_name with
    | Some n -> n
    | None -> (
      match sources with
      | p :: _ -> Design.pin_name st.design p
      | [] ->
        warn st ~code:"sdc.virtual-clock" "create_clock: unnamed virtual clock";
        "virtual")
  in
  let waveform =
    match c.waveform with Some w -> w | None -> 0., c.period /. 2.
  in
  add_clock st
    {
      Mode.clk_name = name;
      period = c.period;
      waveform;
      sources = List.sort_uniq compare sources;
      generated = None;
    }
    ~add:c.add

let apply_generated_clock st (g : create_generated_clock) =
  let targets = pins_only st "create_generated_clock" g.gc_targets in
  let master_name =
    match g.master_clock with
    | Some m -> Some m
    | None -> (
      (* Infer the master from the -source pin: any clock whose source
         set contains it. *)
      let source_pins = pins_only st "create_generated_clock -source" g.gc_source in
      let candidates =
        List.filter
          (fun c ->
            List.exists (fun p -> List.mem p c.Mode.sources) source_pins)
          st.clocks
      in
      match candidates with c :: _ -> Some c.Mode.clk_name | [] -> None)
  in
  match master_name with
  | None -> warn st ~code:"sdc.no-master" "create_generated_clock: cannot determine master clock"
  | Some master -> (
    match List.find_opt (fun c -> String.equal c.Mode.clk_name master) st.clocks with
    | None -> warn st ~code:"sdc.unknown-master" "create_generated_clock: unknown master %s" master
    | Some mclk ->
      let period =
        mclk.Mode.period *. float_of_int g.divide_by /. float_of_int g.multiply_by
      in
      let name =
        match g.gc_name with
        | Some n -> n
        | None -> (
          match targets with
          | p :: _ -> Design.pin_name st.design p
          | [] ->
            warn st ~code:"sdc.virtual-clock" "create_generated_clock: unnamed clock";
            "gen")
      in
      let waveform =
        if g.invert then period /. 2., period else 0., period /. 2.
      in
      add_clock st
        {
          Mode.clk_name = name;
          period;
          waveform;
          sources = List.sort_uniq compare targets;
          generated =
            Some
              {
                Mode.master;
                g_divide = g.divide_by;
                g_multiply = g.multiply_by;
                g_invert = g.invert;
              };
        }
        ~add:g.gc_add)

let apply_latency st (l : set_clock_latency) =
  let clocks = clocks_only st "set_clock_latency" l.lat_objects in
  List.iter
    (fun name ->
      update_attr st name (fun a ->
          let a =
            if l.lat_minmax = Min || l.lat_minmax = Both then
              if l.lat_source then
                { a with Mode.src_latency_min = Some l.lat_value }
              else { a with Mode.net_latency_min = Some l.lat_value }
            else a
          in
          if l.lat_minmax = Max || l.lat_minmax = Both then
            if l.lat_source then
              { a with Mode.src_latency_max = Some l.lat_value }
            else { a with Mode.net_latency_max = Some l.lat_value }
          else a))
    clocks

let apply_uncertainty st (u : set_clock_uncertainty) =
  let clocks = clocks_only st "set_clock_uncertainty" u.unc_objects in
  List.iter
    (fun name ->
      update_attr st name (fun a ->
          let a =
            if u.unc_setup then
              { a with Mode.uncertainty_setup = Some u.unc_value }
            else a
          in
          if u.unc_hold then { a with Mode.uncertainty_hold = Some u.unc_value }
          else a))
    clocks

let apply_transition st (tr : set_clock_transition) =
  let clocks = clocks_only st "set_clock_transition" tr.tra_clocks in
  List.iter
    (fun name ->
      update_attr st name (fun a ->
          let a =
            if tr.tra_minmax = Min || tr.tra_minmax = Both then
              { a with Mode.transition_min = Some tr.tra_value }
            else a
          in
          if tr.tra_minmax = Max || tr.tra_minmax = Both then
            { a with Mode.transition_max = Some tr.tra_value }
          else a))
    clocks

let apply_propagated st objs =
  let clocks = clocks_only st "set_propagated_clock" objs in
  List.iter
    (fun name -> update_attr st name (fun a -> { a with Mode.propagated = true }))
    clocks

let apply_io_delay st (d : io_delay) ~input =
  let pins = pins_only st (if input then "set_input_delay" else "set_output_delay") d.io_ports in
  (match d.io_clock with
  | Some c when not (List.exists (String.equal c) (clock_names st)) ->
    warn st ~code:"sdc.unknown-clock" "io delay references unknown clock %s" c
  | _ -> ());
  List.iter
    (fun pin ->
      st.io_delays <-
        {
          Mode.iod_input = input;
          iod_pin = pin;
          iod_clock = d.io_clock;
          iod_clock_fall = d.io_clock_fall;
          iod_minmax = d.io_minmax;
          iod_value = d.io_value;
          iod_add = d.io_add_delay;
        }
        :: st.io_delays)
    pins

let apply_case st (c : set_case_analysis) =
  let pins = pins_only st "set_case_analysis" c.ca_objects in
  List.iter
    (fun pin ->
      match List.assoc_opt pin st.cases with
      | Some v when v <> c.ca_value ->
        warn st ~code:"sdc.conflicting-case" "conflicting case values on %s" (Design.pin_name st.design pin)
      | Some _ -> ()
      | None -> st.cases <- (pin, c.ca_value) :: st.cases)
    pins

let apply_disable st (dt : set_disable_timing) =
  let o = expand_objects st dt.dis_objects in
  if o.o_clocks <> [] then warn st ~code:"sdc.unsupported" "set_disable_timing: clocks not supported";
  List.iter (fun p -> st.disables <- Mode.Dis_pin p :: st.disables) o.o_pins;
  List.iter
    (fun i -> st.disables <- Mode.Dis_inst (i, dt.dis_from, dt.dis_to) :: st.disables)
    o.o_insts

let points_of_objects st ctx objs =
  let o = expand_objects st objs in
  ignore ctx;
  List.map (fun p -> Mode.P_pin p) o.o_pins
  @ List.map (fun c -> Mode.P_clock c) o.o_clocks
  @ List.map (fun i -> Mode.P_inst i) o.o_insts

let exc_of_spec st kind (spec : path_spec) =
  let resolve_points = function
    | None -> None
    | Some objs -> Some (points_of_objects st "path point" objs)
  in
  let edge rise fall =
    if rise then Mode.Rise_edge
    else if fall then Mode.Fall_edge
    else Mode.Any_edge
  in
  {
    Mode.exc_kind = kind;
    exc_setup = spec.ps_setup;
    exc_hold = spec.ps_hold;
    exc_from = resolve_points spec.ps_from;
    exc_from_edge = edge spec.ps_rise_from spec.ps_fall_from;
    exc_through =
      List.map (fun objs -> pins_only st "-through" objs) spec.ps_through;
    exc_to = resolve_points spec.ps_to;
    exc_to_edge = edge spec.ps_rise_to spec.ps_fall_to;
  }

let apply_exception st kind spec =
  st.exceptions <- exc_of_spec st kind spec :: st.exceptions

let apply_groups st (g : set_clock_groups) =
  let groups =
    List.map (fun objs -> clocks_only st "set_clock_groups" objs) g.cg_groups
  in
  st.groups <-
    { Mode.grp_kind = g.cg_kind; grp_name = g.cg_name; grp_clocks = groups }
    :: st.groups

let apply_sense st (s : set_clock_sense) =
  let pins = pins_only st "set_clock_sense" s.sense_pins in
  let clocks =
    Option.map (fun objs -> clocks_only st "set_clock_sense -clock" objs) s.sense_clocks
  in
  st.senses <-
    { Mode.cs_stop = s.sense_stop; cs_clocks = clocks; cs_pins = pins }
    :: st.senses

let apply_env st (e : set_env) =
  let pins = pins_only st (command_name (Set_env e)) e.env_objects in
  List.iter
    (fun pin ->
      st.envs <-
        {
          Mode.envc_kind = e.env_kind;
          envc_pin = pin;
          envc_minmax = e.env_minmax;
          envc_value = e.env_value;
        }
        :: st.envs)
    pins

let apply_drc st (d : set_drc) =
  let pins = pins_only st (command_name (Set_drc d)) d.drc_objects in
  List.iter
    (fun pin ->
      st.drcs <-
        { Mode.drcl_kind = d.drc_kind; drcl_pin = pin; drcl_value = d.drc_value }
        :: st.drcs)
    pins

let apply st = function
  | Create_clock c -> apply_create_clock st c
  | Create_generated_clock g -> apply_generated_clock st g
  | Set_clock_latency l -> apply_latency st l
  | Set_clock_uncertainty u -> apply_uncertainty st u
  | Set_clock_transition tr -> apply_transition st tr
  | Set_propagated_clock objs -> apply_propagated st objs
  | Set_input_delay d -> apply_io_delay st d ~input:true
  | Set_output_delay d -> apply_io_delay st d ~input:false
  | Set_case_analysis c -> apply_case st c
  | Set_disable_timing dt -> apply_disable st dt
  | Set_false_path spec -> apply_exception st Mode.False_path spec
  | Set_multicycle_path m ->
    apply_exception st
      (Mode.Multicycle { mult = m.mcp_mult; start = m.mcp_start })
      m.mcp_spec
  | Set_min_delay b -> apply_exception st (Mode.Min_delay b.db_value) b.db_spec
  | Set_max_delay b -> apply_exception st (Mode.Max_delay b.db_value) b.db_spec
  | Set_clock_groups g -> apply_groups st g
  | Set_clock_sense s -> apply_sense st s
  | Set_env e -> apply_env st e
  | Set_drc d -> apply_drc st d

(* Resolve [(loc, command)]s in order, each command's diagnostics at its
   location. *)
let resolve ?(diags = []) design ~name located =
  Obs.with_span ~attrs:[ "mode", name ] "sdc.resolve" @@ fun () ->
  let st =
    {
      design;
      clocks = [];
      attrs = Hashtbl.create 16;
      io_delays = [];
      cases = [];
      disables = [];
      exceptions = [];
      groups = [];
      senses = [];
      envs = [];
      drcs = [];
      loc = None;
      diags = Diag.collector ();
    }
  in
  List.iter
    (fun (loc, cmd) ->
      st.loc <- loc;
      apply st cmd)
    located;
  let attrs =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.attrs []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    mode =
      {
        Mode.mode_name = name;
        design;
        clocks = List.rev st.clocks;
        attrs;
        io_delays = List.rev st.io_delays;
        cases = List.rev st.cases;
        disables = List.rev st.disables;
        exceptions = List.rev st.exceptions;
        groups = List.rev st.groups;
        senses = List.rev st.senses;
        envs = List.rev st.envs;
        drcs = List.rev st.drcs;
      };
    diags = diags @ Diag.to_list st.diags;
  }

let some_loc (loc, cmd) = Some loc, cmd

let mode ?file ?diags design ~name cmds =
  let loc = Option.map Diag.loc file in
  resolve ?diags design ~name (List.map (fun cmd -> loc, cmd) cmds)

let mode_of_string ?file design ~name src =
  let located =
    Obs.with_span ~attrs:[ "mode", name ] "sdc.parse" (fun () ->
        Parser.parse_located ?file src)
  in
  resolve design ~name (List.map some_loc located)

(* Robust variants: syntax errors become diagnostics instead of
   exceptions; the well-formed commands still resolve. A resolution
   crash (a bug or an unexpected design/constraint combination) is
   downgraded to a Fatal diagnostic on an empty mode, so callers can
   quarantine rather than die. *)
let mode_of_string_robust ?file design ~name src =
  let located, parse_diags =
    Obs.with_span ~attrs:[ "mode", name ] "sdc.parse" (fun () ->
        Parser.parse_string_recover ?file src)
  in
  (* Each recovering-parse diagnostic is one malformed construct the
     parser skipped and resynchronised past. *)
  (match parse_diags with
  | [] -> ()
  | ds -> Metrics.incr ~by:(List.length ds) "sdc.commands_recovered");
  match resolve ~diags:parse_diags design ~name (List.map some_loc located) with
  | r -> r
  | exception exn ->
    let loc = Option.map Diag.loc file in
    {
      mode = (mode ?file design ~name []).mode;
      diags =
        parse_diags
        @ [
            Diag.makef ?loc Diag.Fatal ~code:"sdc.resolve-crash"
              "resolution of mode %s failed: %s" name (Printexc.to_string exn);
          ];
    }

let mode_exn design ~name cmds =
  let r = mode design ~name cmds in
  match warnings r with
  | [] -> r.mode
  | w ->
    failwith
      (Printf.sprintf "Resolve.mode_exn(%s): %s" name (String.concat "; " w))
