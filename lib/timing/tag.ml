module Mode = Mm_sdc.Mode

type key = int

(* Layout: (((state * 128) + clock + 1) * 4) + polarity code. *)
let make ?(edge = Mode.Any_edge) clock state =
  let code =
    match edge with Mode.Any_edge -> 0 | Mode.Rise_edge -> 1 | Mode.Fall_edge -> 2
  in
  (((state * 128) + clock + 1) * 4) + code

let clock key = ((key / 4) mod 128) - 1
let state key = key / 4 / 128

let edge key =
  match key land 3 with
  | 1 -> Mode.Rise_edge
  | 2 -> Mode.Fall_edge
  | _ -> Mode.Any_edge

let step excs (unate : Tgraph.unate) dst key f =
  let clk = clock key and st = Excmatch.advance excs (state key) dst in
  match edge key, unate with
  | Mode.Any_edge, _ -> f (make clk st)
  | e, Tgraph.Positive -> f (make ~edge:e clk st)
  | Mode.Rise_edge, Tgraph.Negative -> f (make ~edge:Mode.Fall_edge clk st)
  | Mode.Fall_edge, Tgraph.Negative -> f (make ~edge:Mode.Rise_edge clk st)
  | (Mode.Rise_edge | Mode.Fall_edge), Tgraph.Non_unate ->
    f (make ~edge:Mode.Rise_edge clk st);
    f (make ~edge:Mode.Fall_edge clk st)

type launch = {
  launch_pin : Mm_netlist.Design.pin_id;
  launch_clock : int;
  launch_aliases : Mm_netlist.Design.pin_id list;
  launch_edge : Mm_netlist.Lib_cell.edge;
  input_delay : float option;
}

let launches (ctx : Context.t) = function
  | Tgraph.Sp_reg { sp_clock; sp_outputs; sp_edge; _ } ->
    if not (Const_prop.pin_active ctx.Context.consts sp_clock) then []
    else
      Clock_prop.fold_indices
        (Clock_prop.mask_at ctx.Context.clocks sp_clock)
        (fun ci acc ->
          {
            launch_pin = sp_clock;
            launch_clock = ci;
            launch_aliases = sp_clock :: sp_outputs;
            launch_edge = sp_edge;
            input_delay = None;
          }
          :: acc)
        []
  | Tgraph.Sp_port { sp_pin } ->
    if not (Const_prop.pin_active ctx.Context.consts sp_pin) then []
    else
      List.filter_map
        (fun (d : Mode.io_delay) ->
          if not (d.iod_input && d.iod_pin = sp_pin) then None
          else
            Option.bind d.iod_clock (Clock_prop.clock_index ctx.Context.clocks)
            |> Option.map (fun ci ->
                   {
                     launch_pin = sp_pin;
                     launch_clock = ci;
                     launch_aliases = [ sp_pin ];
                     launch_edge =
                       (if d.iod_clock_fall then Mm_netlist.Lib_cell.Falling
                        else Mm_netlist.Lib_cell.Rising);
                     input_delay = Some d.iod_value;
                   }))
        ctx.Context.mode.Mode.io_delays

let all_launches (ctx : Context.t) =
  List.concat_map (launches ctx) ctx.Context.graph.Tgraph.sk_startpoints

let seed (ctx : Context.t) l f =
  let excs = ctx.Context.excs in
  List.iter
    (fun edge ->
      let st =
        Excmatch.initial_state excs ~start_pins:l.launch_aliases
          ~launch_clock:(Some l.launch_clock) ~launch_edge:l.launch_edge
          ~data_edge:edge ()
      in
      f (make ~edge l.launch_clock (Excmatch.advance excs st l.launch_pin)))
    (if Excmatch.edge_sensitive excs then [ Mode.Rise_edge; Mode.Fall_edge ]
     else [ Mode.Any_edge ])
