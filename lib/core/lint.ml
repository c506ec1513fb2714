module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Tgraph = Mm_timing.Tgraph
module Clock_prop = Mm_timing.Clock_prop
module Const_prop = Mm_timing.Const_prop
module Context = Mm_timing.Context

type finding = { lint_kind : string; lint_msg : string }

let finding lint_kind fmt =
  Printf.ksprintf (fun lint_msg -> { lint_kind; lint_msg }) fmt

let unclocked_registers (ctx : Context.t) =
  let design = ctx.Context.design in
  List.filter_map
    (function
      | Tgraph.Sp_reg { sp_clock; sp_inst; _ } ->
        if
          Const_prop.pin_active ctx.Context.consts sp_clock
          && Clock_prop.mask_at ctx.Context.clocks sp_clock = 0
        then
          Some
            (finding "unclocked-register" "no clock reaches %s (%s)"
               (Design.pin_name design sp_clock)
               (Design.inst_name design sp_inst))
        else None
      | Tgraph.Sp_port _ -> None)
    ctx.Context.graph.Tgraph.sk_startpoints

let unconstrained_ports (ctx : Context.t) =
  let design = ctx.Context.design in
  let mode = ctx.Context.mode in
  let clock_sources =
    List.concat_map (fun (c : Mode.clock) -> c.Mode.sources) mode.Mode.clocks
  in
  let has_io input pin =
    List.exists
      (fun (d : Mode.io_delay) -> d.Mode.iod_input = input && d.Mode.iod_pin = pin)
      mode.Mode.io_delays
  in
  let acc = ref [] in
  Design.iter_ports design (fun p ->
      let pin = Design.port_pin design p in
      match Design.port_dir design p with
      | Design.In ->
        if
          (not (has_io true pin))
          && (not (List.mem pin clock_sources))
          && Mode.case_value mode pin = None
          && Design.fanout_pins design pin <> []
        then
          acc :=
            finding "unconstrained-input" "input port %s has no input delay"
              (Design.port_name design p)
            :: !acc
      | Design.Out ->
        if (not (has_io false pin)) && Design.pin_net design pin <> None then
          acc :=
            finding "unconstrained-output" "output port %s has no output delay"
              (Design.port_name design p)
            :: !acc);
  List.rev !acc

let unused_clocks (ctx : Context.t) =
  let used = ref 0 in
  List.iter
    (function
      | Tgraph.Sp_reg { sp_clock; _ } ->
        used := !used lor Clock_prop.mask_at ctx.Context.clocks sp_clock
      | Tgraph.Sp_port _ -> ())
    ctx.Context.graph.Tgraph.sk_startpoints;
  let acc = ref [] in
  for i = 0 to Clock_prop.n_clocks ctx.Context.clocks - 1 do
    if !used land (1 lsl i) = 0 then
      acc :=
        finding "unused-clock" "clock %s clocks no register"
          (Clock_prop.clock_name ctx.Context.clocks i)
        :: !acc
  done;
  List.rev !acc

let dead_throughs (ctx : Context.t) =
  let design = ctx.Context.design in
  List.concat_map
    (fun (e : Mode.exc) ->
      List.concat_map
        (fun pins ->
          List.filter_map
            (fun pin ->
              if not (Const_prop.pin_active ctx.Context.consts pin) then
                Some
                  (finding "dead-through"
                     "exception -through %s can never match (pin constant or \
                      disabled)"
                     (Design.pin_name design pin))
              else None)
            pins)
        e.Mode.exc_through)
    ctx.Context.mode.Mode.exceptions

let cross_domain (ctx : Context.t) =
  let design = ctx.Context.design in
  List.filter_map
    (function
      | Tgraph.Sp_reg { sp_clock; _ } ->
        (* more than one clock and at least one non-exclusive pair *)
        let clocks =
          Clock_prop.fold_indices
            (Clock_prop.mask_at ctx.Context.clocks sp_clock)
            List.cons []
        in
        let unrelated_pair =
          List.exists
            (fun a ->
              List.exists
                (fun b -> a < b && not (Context.clocks_exclusive ctx a b))
                clocks)
            clocks
        in
        if unrelated_pair then
          Some
            (finding "cross-domain-unrelated"
               "%s is clocked by %s with no clock-group relationship"
               (Design.pin_name design sp_clock)
               (String.concat ", "
                  (List.rev_map (Clock_prop.clock_name ctx.Context.clocks) clocks)))
        else None
      | Tgraph.Sp_port _ -> None)
    ctx.Context.graph.Tgraph.sk_startpoints

let run ctx =
  unclocked_registers ctx @ unconstrained_ports ctx @ unused_clocks ctx
  @ dead_throughs ctx @ cross_domain ctx

let to_string findings =
  String.concat "\n"
    (List.map (fun f -> Printf.sprintf "[%s] %s" f.lint_kind f.lint_msg) findings)
