open Ast

let fnum v =
  (* Shortest float form that survives a round-trip through the lexer
     and [float_of_string]. *)
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else begin
    let s = Printf.sprintf "%g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v
  end

let write_patterns = function
  | [ p ] -> p
  | ps -> "{" ^ String.concat " " ps ^ "}"

let write_query = function
  | Get_ports ps -> Printf.sprintf "[get_ports %s]" (write_patterns ps)
  | Get_pins ps -> Printf.sprintf "[get_pins %s]" (write_patterns ps)
  | Get_cells ps -> Printf.sprintf "[get_cells %s]" (write_patterns ps)
  | Get_clocks ps -> Printf.sprintf "[get_clocks %s]" (write_patterns ps)
  | Get_nets ps -> Printf.sprintf "[get_nets %s]" (write_patterns ps)
  | All_inputs -> "[all_inputs]"
  | All_outputs -> "[all_outputs]"
  | All_clocks -> "[all_clocks]"
  | All_registers { clock_pins } ->
    if clock_pins then "[all_registers -clock_pins]" else "[all_registers]"
  | Name n -> n

let write_objects objs = String.concat " " (List.map write_query objs)

let mm_flags = function Min -> [ "-min" ] | Max -> [ "-max" ] | Both -> []

(* [default_setup_only] selects the command's implicit analysis sides:
   multicycle paths default to setup, the other exceptions to both. *)
let spec_parts ?(default_setup_only = false) spec =
  let from_flag =
    if spec.ps_rise_from then "-rise_from"
    else if spec.ps_fall_from then "-fall_from"
    else "-from"
  in
  let to_flag =
    if spec.ps_rise_to then "-rise_to"
    else if spec.ps_fall_to then "-fall_to"
    else "-to"
  in
  (match spec.ps_from with
  | Some objs -> [ from_flag; write_objects objs ]
  | None -> [])
  @ List.concat_map (fun objs -> [ "-through"; write_objects objs ]) spec.ps_through
  @ (match spec.ps_to with
    | Some objs -> [ to_flag; write_objects objs ]
    | None -> [])
  @
  match spec.ps_setup, spec.ps_hold with
  | true, false -> if default_setup_only then [] else [ "-setup" ]
  | false, true -> [ "-hold" ]
  | true, true | false, false -> []

let words ws = String.concat " " (List.filter (fun w -> w <> "") ws)

let write_command cmd =
  match cmd with
  | Create_clock c ->
    words
      ([ "create_clock" ]
      @ (match c.cc_name with Some n -> [ "-name"; n ] | None -> [])
      @ [ "-period"; fnum c.period ]
      @ (match c.waveform with
        | Some (r, f) -> [ "-waveform"; Printf.sprintf "{%s %s}" (fnum r) (fnum f) ]
        | None -> [])
      @ (if c.add then [ "-add" ] else [])
      @ (match c.comment with Some s -> [ "-comment"; "\"" ^ s ^ "\"" ] | None -> [])
      @ [ write_objects c.sources ])
  | Create_generated_clock g ->
    words
      ([ "create_generated_clock" ]
      @ (match g.gc_name with Some n -> [ "-name"; n ] | None -> [])
      @ [ "-source"; write_objects g.gc_source ]
      @ (match g.master_clock with
        | Some m -> [ "-master_clock"; m ]
        | None -> [])
      @ (if g.divide_by <> 1 then [ "-divide_by"; string_of_int g.divide_by ] else [])
      @ (if g.multiply_by <> 1 then [ "-multiply_by"; string_of_int g.multiply_by ]
         else [])
      @ (if g.invert then [ "-invert" ] else [])
      @ (if g.gc_add then [ "-add" ] else [])
      @ [ write_objects g.gc_targets ])
  | Set_clock_latency l ->
    words
      ([ "set_clock_latency" ]
      @ (if l.lat_source then [ "-source" ] else [])
      @ mm_flags l.lat_minmax
      @ [ fnum l.lat_value; write_objects l.lat_objects ])
  | Set_clock_uncertainty u ->
    words
      ([ "set_clock_uncertainty" ]
      @ (match u.unc_setup, u.unc_hold with
        | true, false -> [ "-setup" ]
        | false, true -> [ "-hold" ]
        | true, true | false, false -> [])
      @ [ fnum u.unc_value; write_objects u.unc_objects ])
  | Set_clock_transition tr ->
    words
      ([ "set_clock_transition" ]
      @ mm_flags tr.tra_minmax
      @ [ fnum tr.tra_value; write_objects tr.tra_clocks ])
  | Set_propagated_clock objs ->
    words [ "set_propagated_clock"; write_objects objs ]
  | Set_input_delay d | Set_output_delay d ->
    let name =
      match cmd with Set_input_delay _ -> "set_input_delay" | _ -> "set_output_delay"
    in
    words
      ([ name ]
      @ (match d.io_clock with Some c -> [ "-clock"; c ] | None -> [])
      @ (if d.io_clock_fall then [ "-clock_fall" ] else [])
      @ mm_flags d.io_minmax
      @ (if d.io_add_delay then [ "-add_delay" ] else [])
      @ [ fnum d.io_value; write_objects d.io_ports ])
  | Set_case_analysis c ->
    words
      [
        "set_case_analysis";
        (if c.ca_value then "1" else "0");
        write_objects c.ca_objects;
      ]
  | Set_disable_timing dt ->
    words
      ([ "set_disable_timing" ]
      @ (match dt.dis_from with Some f -> [ "-from"; f ] | None -> [])
      @ (match dt.dis_to with Some t -> [ "-to"; t ] | None -> [])
      @ [ write_objects dt.dis_objects ])
  | Set_false_path spec -> words ("set_false_path" :: spec_parts spec)
  | Set_multicycle_path m ->
    words
      ([ "set_multicycle_path"; string_of_int m.mcp_mult ]
      @ (if m.mcp_start then [ "-start" ] else [])
      @ (if m.mcp_end && m.mcp_start then [ "-end" ] else [])
      @ spec_parts ~default_setup_only:true m.mcp_spec)
  | Set_min_delay b ->
    words ([ "set_min_delay"; fnum b.db_value ] @ spec_parts b.db_spec)
  | Set_max_delay b ->
    words ([ "set_max_delay"; fnum b.db_value ] @ spec_parts b.db_spec)
  | Set_clock_groups g ->
    let kind =
      match g.cg_kind with
      | Physically_exclusive -> "-physically_exclusive"
      | Logically_exclusive -> "-logically_exclusive"
      | Asynchronous -> "-asynchronous"
    in
    words
      ([ "set_clock_groups"; kind ]
      @ (match g.cg_name with Some n -> [ "-name"; n ] | None -> [])
      @ List.concat_map
          (fun objs -> [ "-group"; write_objects objs ])
          g.cg_groups)
  | Set_clock_sense s ->
    words
      ([ "set_clock_sense" ]
      @ (if s.sense_stop then [ "-stop_propagation" ] else [])
      @ (match s.sense_clocks with
        | Some objs -> [ "-clock"; write_objects objs ]
        | None -> [])
      @ [ write_objects s.sense_pins ])
  | Set_env e ->
    words
      ([ command_name cmd ]
      @ mm_flags e.env_minmax
      @ [ fnum e.env_value; write_objects e.env_objects ])
  | Set_drc d ->
    words [ command_name cmd; fnum d.drc_value; write_objects d.drc_objects ]

let write_commands_annotated ?header ~comment cmds =
  let lines =
    List.concat
      (List.mapi
         (fun i cmd ->
           let body = write_command cmd in
           match comment i cmd with
           | None -> [ body ]
           | Some c -> [ "# " ^ c; body ])
         cmds)
  in
  let body = String.concat "\n" lines in
  match header with
  | None -> body ^ "\n"
  | Some h -> "# " ^ h ^ "\n" ^ body ^ "\n"

let write_commands ?header cmds =
  write_commands_annotated ?header ~comment:(fun _ _ -> None) cmds
