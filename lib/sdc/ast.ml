type obj_query =
  | Get_ports of string list
  | Get_pins of string list
  | Get_cells of string list
  | Get_clocks of string list
  | Get_nets of string list
  | All_inputs
  | All_outputs
  | All_clocks
  | All_registers of { clock_pins : bool }
  | Name of string

type objects = obj_query list

type minmax = Min | Max | Both

type create_clock = {
  cc_name : string option;
  period : float;
  waveform : (float * float) option;
  add : bool;
  sources : objects;
  comment : string option;
}

type create_generated_clock = {
  gc_name : string option;
  gc_source : objects;
  master_clock : string option;
  divide_by : int;
  multiply_by : int;
  invert : bool;
  gc_add : bool;
  gc_targets : objects;
}

type set_clock_latency = {
  lat_value : float;
  lat_source : bool;
  lat_minmax : minmax;
  lat_objects : objects;
}

type set_clock_uncertainty = {
  unc_value : float;
  unc_setup : bool;
  unc_hold : bool;
  unc_objects : objects;
}

type set_clock_transition = {
  tra_value : float;
  tra_minmax : minmax;
  tra_clocks : objects;
}

type io_delay = {
  io_value : float;
  io_clock : string option;
  io_clock_fall : bool;
  io_minmax : minmax;
  io_add_delay : bool;
  io_ports : objects;
}

type set_case_analysis = { ca_value : bool; ca_objects : objects }

type set_disable_timing = {
  dis_objects : objects;
  dis_from : string option;
  dis_to : string option;
}

type path_spec = {
  ps_from : objects option;
  ps_rise_from : bool;
  ps_fall_from : bool;
  ps_through : objects list;
  ps_to : objects option;
  ps_rise_to : bool;
  ps_fall_to : bool;
  ps_setup : bool;
  ps_hold : bool;
}

let default_path_spec =
  {
    ps_from = None;
    ps_rise_from = false;
    ps_fall_from = false;
    ps_through = [];
    ps_to = None;
    ps_rise_to = false;
    ps_fall_to = false;
    ps_setup = true;
    ps_hold = true;
  }

type set_multicycle_path = {
  mcp_mult : int;
  mcp_start : bool;
  mcp_end : bool;
  mcp_spec : path_spec;
}

type delay_bound = { db_value : float; db_spec : path_spec }

type exclusivity = Physically_exclusive | Logically_exclusive | Asynchronous

type set_clock_groups = {
  cg_name : string option;
  cg_kind : exclusivity;
  cg_groups : objects list;
}

type set_clock_sense = {
  sense_stop : bool;
  sense_clocks : objects option;
  sense_pins : objects;
}

type env_kind = Input_transition | Load | Drive

type set_env = {
  env_kind : env_kind;
  env_value : float;
  env_minmax : minmax;
  env_objects : objects;
}

(** Design-rule limits: [set_max_transition] / [set_max_capacitance]. *)
type drc_kind = Max_transition | Max_capacitance

type set_drc = {
  drc_kind : drc_kind;
  drc_value : float;
  drc_objects : objects;
}

type command =
  | Create_clock of create_clock
  | Create_generated_clock of create_generated_clock
  | Set_clock_latency of set_clock_latency
  | Set_clock_uncertainty of set_clock_uncertainty
  | Set_clock_transition of set_clock_transition
  | Set_propagated_clock of objects
  | Set_input_delay of io_delay
  | Set_output_delay of io_delay
  | Set_case_analysis of set_case_analysis
  | Set_disable_timing of set_disable_timing
  | Set_false_path of path_spec
  | Set_multicycle_path of set_multicycle_path
  | Set_min_delay of delay_bound
  | Set_max_delay of delay_bound
  | Set_clock_groups of set_clock_groups
  | Set_clock_sense of set_clock_sense
  | Set_env of set_env
  | Set_drc of set_drc

let command_name = function
  | Create_clock _ -> "create_clock"
  | Create_generated_clock _ -> "create_generated_clock"
  | Set_clock_latency _ -> "set_clock_latency"
  | Set_clock_uncertainty _ -> "set_clock_uncertainty"
  | Set_clock_transition _ -> "set_clock_transition"
  | Set_propagated_clock _ -> "set_propagated_clock"
  | Set_input_delay _ -> "set_input_delay"
  | Set_output_delay _ -> "set_output_delay"
  | Set_case_analysis _ -> "set_case_analysis"
  | Set_disable_timing _ -> "set_disable_timing"
  | Set_false_path _ -> "set_false_path"
  | Set_multicycle_path _ -> "set_multicycle_path"
  | Set_min_delay _ -> "set_min_delay"
  | Set_max_delay _ -> "set_max_delay"
  | Set_clock_groups _ -> "set_clock_groups"
  | Set_clock_sense _ -> "set_clock_sense"
  | Set_env { env_kind = Input_transition; _ } -> "set_input_transition"
  | Set_env { env_kind = Load; _ } -> "set_load"
  | Set_env { env_kind = Drive; _ } -> "set_drive"
  | Set_drc { drc_kind = Max_transition; _ } -> "set_max_transition"
  | Set_drc { drc_kind = Max_capacitance; _ } -> "set_max_capacitance"
