open Ast
module Diag = Mm_util.Diag

exception Error of { loc : Diag.loc option; msg : string }

(* Internal: command parsers raise [Msg]; [parse_command] attaches the
   command's source location before the exception escapes. *)
exception Msg of string

let err fmt = Printf.ksprintf (fun s -> raise (Msg s)) fmt

(* ------------------------------------------------------------------ *)
(* Object queries                                                      *)

let patterns_of_toks cmd toks =
  List.concat_map
    (function
      | Lexer.Atom s ->
        if String.length s > 0 && s.[0] = '-' then
          err "%s: unsupported flag %s in object query" cmd s
        else [ s ]
      | Lexer.Brace ws -> ws
      | Lexer.Bracket _ -> err "%s: nested brackets in object query" cmd)
    toks

let query_of_bracket cmd toks =
  match toks with
  | Lexer.Atom "get_ports" :: rest -> Get_ports (patterns_of_toks cmd rest)
  | Lexer.Atom "get_pins" :: rest -> Get_pins (patterns_of_toks cmd rest)
  | Lexer.Atom "get_pin" :: rest -> Get_pins (patterns_of_toks cmd rest)
  | Lexer.Atom "get_port" :: rest -> Get_ports (patterns_of_toks cmd rest)
  | Lexer.Atom "get_cells" :: rest -> Get_cells (patterns_of_toks cmd rest)
  | Lexer.Atom "get_clocks" :: rest -> Get_clocks (patterns_of_toks cmd rest)
  | Lexer.Atom "get_nets" :: rest -> Get_nets (patterns_of_toks cmd rest)
  | [ Lexer.Atom "all_inputs" ] -> All_inputs
  | [ Lexer.Atom "all_outputs" ] -> All_outputs
  | [ Lexer.Atom "all_clocks" ] -> All_clocks
  | Lexer.Atom "all_registers" :: rest ->
    let clock_pins =
      List.exists (function Lexer.Atom "-clock_pins" -> true | _ -> false) rest
    in
    All_registers { clock_pins }
  | Lexer.Atom q :: _ -> err "%s: unsupported object query %s" cmd q
  | _ -> err "%s: malformed object query" cmd

let rec objects_of_tok cmd tok =
  match tok with
  | Lexer.Atom s -> [ Name s ]
  | Lexer.Brace ws -> List.map (fun w -> Name w) ws
  | Lexer.Bracket toks -> (
    (* A bracket is usually one query, but Tcl allows [list ...]-style
       nesting; treat a bracket of brackets as concatenation. *)
    match toks with
    | Lexer.Bracket _ :: _ -> List.concat_map (objects_of_tok cmd) toks
    | _ -> [ query_of_bracket cmd toks ])

(* ------------------------------------------------------------------ *)
(* Generic argument cursor                                             *)

type cursor = { cmd : string; mutable toks : Lexer.tok list }

let next_tok cur flag =
  match cur.toks with
  | [] -> err "%s: %s expects an argument" cur.cmd flag
  | t :: rest ->
    cur.toks <- rest;
    t

let next_atom cur flag =
  match next_tok cur flag with
  | Lexer.Atom s -> s
  | Lexer.Brace [ s ] -> s
  | _ -> err "%s: %s expects a word argument" cur.cmd flag

let next_float cur flag =
  let s = next_atom cur flag in
  match float_of_string_opt s with
  | Some f -> f
  | None -> err "%s: %s expects a number, got %s" cur.cmd flag s

let next_int cur flag =
  let s = next_atom cur flag in
  match int_of_string_opt s with
  | Some i -> i
  | None -> err "%s: %s expects an integer, got %s" cur.cmd flag s

let next_objects cur flag = objects_of_tok cur.cmd (next_tok cur flag)

(* A clock argument may be written as a bare name or [get_clocks x]. *)
let next_clock_name cur flag =
  match next_tok cur flag with
  | Lexer.Atom s -> s
  | Lexer.Brace [ s ] -> s
  | Lexer.Bracket toks -> (
    match query_of_bracket cur.cmd toks with
    | Get_clocks [ name ] -> name
    | _ -> err "%s: %s expects a single clock" cur.cmd flag)
  | Lexer.Brace _ -> err "%s: %s expects a single clock" cur.cmd flag

let next_waveform cur flag =
  match next_tok cur flag with
  | Lexer.Brace [ r; f ] -> (
    match float_of_string_opt r, float_of_string_opt f with
    | Some r, Some f -> r, f
    | _ -> err "%s: bad -waveform edge values" cur.cmd)
  | Lexer.Brace _ ->
    err "%s: -waveform supports exactly two edges" cur.cmd
  | _ -> err "%s: %s expects {rise fall}" cur.cmd flag

(* Walk the remaining tokens dispatching flags through [on_flag] and
   positionals through [on_pos]. *)
let is_flag s =
  String.length s > 1
  && s.[0] = '-'
  &&
  let c = Char.lowercase_ascii s.[1] in
  c >= 'a' && c <= 'z'

let iter_args cur ~on_flag ~on_pos =
  let rec go () =
    match cur.toks with
    | [] -> ()
    | Lexer.Atom s :: rest when is_flag s ->
      cur.toks <- rest;
      on_flag s;
      go ()
    | t :: rest ->
      cur.toks <- rest;
      on_pos t;
      go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Command parsers                                                     *)

let parse_create_clock cur =
  let name = ref None
  and period = ref None
  and waveform = ref None
  and add = ref false
  and comment = ref None
  and sources = ref [] in
  iter_args cur
    ~on_flag:(fun f ->
      match f with
      | "-name" -> name := Some (next_atom cur f)
      | "-period" -> period := Some (next_float cur f)
      | "-p" -> period := Some (next_float cur f)
      | "-waveform" -> waveform := Some (next_waveform cur f)
      | "-add" -> add := true
      | "-comment" -> comment := Some (next_atom cur f)
      | _ -> err "create_clock: unknown flag %s" f)
    ~on_pos:(fun t -> sources := !sources @ objects_of_tok cur.cmd t);
  let period =
    match !period with
    | Some p -> p
    | None -> err "create_clock: -period is required"
  in
  Create_clock
    {
      cc_name = !name;
      period;
      waveform = !waveform;
      add = !add;
      sources = !sources;
      comment = !comment;
    }

let parse_create_generated_clock cur =
  let name = ref None
  and source = ref []
  and master = ref None
  and divide = ref 1
  and multiply = ref 1
  and invert = ref false
  and add = ref false
  and targets = ref [] in
  iter_args cur
    ~on_flag:(fun f ->
      match f with
      | "-name" -> name := Some (next_atom cur f)
      | "-source" -> source := next_objects cur f
      | "-master_clock" -> master := Some (next_clock_name cur f)
      | "-divide_by" -> divide := next_int cur f
      | "-multiply_by" -> multiply := next_int cur f
      | "-invert" -> invert := true
      | "-add" -> add := true
      | _ -> err "create_generated_clock: unknown flag %s" f)
    ~on_pos:(fun t -> targets := !targets @ objects_of_tok cur.cmd t);
  if !source = [] then err "create_generated_clock: -source is required";
  Create_generated_clock
    {
      gc_name = !name;
      gc_source = !source;
      master_clock = !master;
      divide_by = !divide;
      multiply_by = !multiply;
      invert = !invert;
      gc_add = !add;
      gc_targets = !targets;
    }

let parse_value_and_objects cur ~flags =
  (* Shared shape: [cmd <flags> value objects...]. [flags] receives
     unknown flags. Returns (value, objects). *)
  let value = ref None and objs = ref [] in
  iter_args cur
    ~on_flag:(fun f -> flags f)
    ~on_pos:(fun t ->
      match t, !value with
      | Lexer.Atom s, None when float_of_string_opt s <> None ->
        value := Some (float_of_string s)
      | _ -> objs := !objs @ objects_of_tok cur.cmd t);
  match !value with
  | Some v -> v, !objs
  | None -> err "%s: missing value" cur.cmd

(* Track -min/-max accumulation: default Both; first of -min/-max makes
   it that one; seeing both restores Both. *)
let minmax_tracker () =
  let seen_min = ref false and seen_max = ref false in
  let on f =
    match f with
    | "-min" ->
      seen_min := true;
      true
    | "-max" ->
      seen_max := true;
      true
    | _ -> false
  in
  let result () =
    match !seen_min, !seen_max with
    | false, false | true, true -> Both
    | true, false -> Min
    | false, true -> Max
  in
  on, result

let parse_clock_latency cur =
  let source = ref false in
  let on_mm, mm_result = minmax_tracker () in
  let value, objs =
    parse_value_and_objects cur ~flags:(fun f ->
        if on_mm f then ()
        else if f = "-source" then source := true
        else err "set_clock_latency: unknown flag %s" f)
  in
  Set_clock_latency
    {
      lat_value = value;
      lat_source = !source;
      lat_minmax = mm_result ();
      lat_objects = objs;
    }

let parse_clock_uncertainty cur =
  let setup = ref false and hold = ref false in
  let value, objs =
    parse_value_and_objects cur ~flags:(fun f ->
        match f with
        | "-setup" -> setup := true
        | "-hold" -> hold := true
        | _ -> err "set_clock_uncertainty: unknown flag %s" f)
  in
  let setup, hold =
    match !setup, !hold with false, false -> true, true | s, h -> s, h
  in
  Set_clock_uncertainty
    { unc_value = value; unc_setup = setup; unc_hold = hold; unc_objects = objs }

let parse_clock_transition cur =
  let on_mm, mm_result = minmax_tracker () in
  let value, objs =
    parse_value_and_objects cur ~flags:(fun f ->
        if on_mm f then ()
        else err "set_clock_transition: unknown flag %s" f)
  in
  Set_clock_transition
    { tra_value = value; tra_minmax = mm_result (); tra_clocks = objs }

let parse_io_delay cur ~output =
  let clock = ref None
  and clock_fall = ref false
  and add_delay = ref false in
  let on_mm, mm_result = minmax_tracker () in
  let value, objs =
    parse_value_and_objects cur ~flags:(fun f ->
        if on_mm f then ()
        else
          match f with
          | "-clock" -> clock := Some (next_clock_name cur f)
          | "-clock_fall" -> clock_fall := true
          | "-add_delay" -> add_delay := true
          | _ -> err "%s: unknown flag %s" cur.cmd f)
  in
  let d =
    {
      io_value = value;
      io_clock = !clock;
      io_clock_fall = !clock_fall;
      io_minmax = mm_result ();
      io_add_delay = !add_delay;
      io_ports = objs;
    }
  in
  if output then Set_output_delay d else Set_input_delay d

let parse_case_analysis cur =
  let value = ref None and objs = ref [] in
  iter_args cur
    ~on_flag:(fun f -> err "set_case_analysis: unknown flag %s" f)
    ~on_pos:(fun t ->
      match t, !value with
      | Lexer.Atom ("0" | "zero"), None -> value := Some false
      | Lexer.Atom ("1" | "one"), None -> value := Some true
      | _ -> objs := !objs @ objects_of_tok cur.cmd t);
  match !value with
  | None -> err "set_case_analysis: missing 0/1 value"
  | Some v -> Set_case_analysis { ca_value = v; ca_objects = !objs }

let parse_disable_timing cur =
  let from_ = ref None and to_ = ref None and objs = ref [] in
  iter_args cur
    ~on_flag:(fun f ->
      match f with
      | "-from" -> from_ := Some (next_atom cur f)
      | "-to" -> to_ := Some (next_atom cur f)
      | _ -> err "set_disable_timing: unknown flag %s" f)
    ~on_pos:(fun t -> objs := !objs @ objects_of_tok cur.cmd t);
  Set_disable_timing { dis_objects = !objs; dis_from = !from_; dis_to = !to_ }

(* Path-spec flags shared by the four exception commands. Returns a
   handler and an extractor. *)
let path_spec_collector cur =
  let spec = ref default_path_spec in
  let on_flag f =
    let s = !spec in
    match f with
    | "-from" ->
      spec := { s with ps_from = Some (next_objects cur f) };
      true
    | "-rise_from" ->
      spec :=
        { s with ps_from = Some (next_objects cur f); ps_rise_from = true };
      true
    | "-fall_from" ->
      spec :=
        { s with ps_from = Some (next_objects cur f); ps_fall_from = true };
      true
    | "-through" ->
      spec := { s with ps_through = s.ps_through @ [ next_objects cur f ] };
      true
    | "-to" ->
      spec := { s with ps_to = Some (next_objects cur f) };
      true
    | "-rise_to" ->
      spec := { s with ps_to = Some (next_objects cur f); ps_rise_to = true };
      true
    | "-fall_to" ->
      spec := { s with ps_to = Some (next_objects cur f); ps_fall_to = true };
      true
    | "-setup" ->
      spec := { s with ps_setup = true; ps_hold = false };
      true
    | "-hold" ->
      spec := { s with ps_hold = true; ps_setup = false };
      true
    | _ -> false
  in
  let result () = !spec in
  on_flag, result

let parse_false_path cur =
  let on_ps, ps_result = path_spec_collector cur in
  iter_args cur
    ~on_flag:(fun f ->
      if not (on_ps f) then err "set_false_path: unknown flag %s" f)
    ~on_pos:(fun t ->
      err "set_false_path: unexpected argument %s" (Lexer.tok_to_string t));
  Set_false_path (ps_result ())

let parse_multicycle cur =
  let on_ps, ps_result = path_spec_collector cur in
  let mult = ref None
  and start = ref false
  and end_ = ref false in
  iter_args cur
    ~on_flag:(fun f ->
      if on_ps f then ()
      else
        match f with
        | "-start" -> start := true
        | "-end" -> end_ := true
        | _ -> err "set_multicycle_path: unknown flag %s" f)
    ~on_pos:(fun t ->
      match t, !mult with
      | Lexer.Atom s, None when int_of_string_opt s <> None ->
        mult := Some (int_of_string s)
      | _ ->
        err "set_multicycle_path: unexpected argument %s"
          (Lexer.tok_to_string t));
  let mult =
    match !mult with
    | Some m -> m
    | None -> err "set_multicycle_path: missing multiplier"
  in
  let start, end_ =
    match !start, !end_ with false, false -> false, true | s, e -> s, e
  in
  (* Without -setup/-hold a multicycle applies to setup analysis only
     (unlike false paths, which cover both). *)
  let spec = ps_result () in
  let spec =
    if spec.ps_setup && spec.ps_hold then { spec with ps_hold = false } else spec
  in
  Set_multicycle_path
    { mcp_mult = mult; mcp_start = start; mcp_end = end_; mcp_spec = spec }

let parse_delay_bound cur ~is_min =
  let on_ps, ps_result = path_spec_collector cur in
  let value = ref None in
  iter_args cur
    ~on_flag:(fun f ->
      if not (on_ps f) then err "%s: unknown flag %s" cur.cmd f)
    ~on_pos:(fun t ->
      match t, !value with
      | Lexer.Atom s, None when float_of_string_opt s <> None ->
        value := Some (float_of_string s)
      | _ -> err "%s: unexpected argument %s" cur.cmd (Lexer.tok_to_string t));
  let value =
    match !value with Some v -> v | None -> err "%s: missing delay value" cur.cmd
  in
  let bound = { db_value = value; db_spec = ps_result () } in
  if is_min then Set_min_delay bound else Set_max_delay bound

let parse_clock_groups cur =
  let kind = ref None and name = ref None and groups = ref [] in
  iter_args cur
    ~on_flag:(fun f ->
      match f with
      | "-physically_exclusive" -> kind := Some Physically_exclusive
      | "-logically_exclusive" -> kind := Some Logically_exclusive
      | "-asynchronous" -> kind := Some Asynchronous
      | "-name" -> name := Some (next_atom cur f)
      | "-group" -> groups := !groups @ [ next_objects cur f ]
      | _ -> err "set_clock_groups: unknown flag %s" f)
    ~on_pos:(fun t ->
      err "set_clock_groups: unexpected argument %s" (Lexer.tok_to_string t));
  let kind =
    match !kind with
    | Some k -> k
    | None -> err "set_clock_groups: missing exclusivity flag"
  in
  Set_clock_groups { cg_name = !name; cg_kind = kind; cg_groups = !groups }

let parse_clock_sense cur =
  let stop = ref false and clocks = ref None and pins = ref [] in
  iter_args cur
    ~on_flag:(fun f ->
      match f with
      | "-stop_propagation" -> stop := true
      | "-clock" | "-clocks" -> clocks := Some (next_objects cur f)
      | _ -> err "set_clock_sense: unknown flag %s" f)
    ~on_pos:(fun t -> pins := !pins @ objects_of_tok cur.cmd t);
  Set_clock_sense
    { sense_stop = !stop; sense_clocks = !clocks; sense_pins = !pins }

let parse_env cur kind =
  let on_mm, mm_result = minmax_tracker () in
  let value, objs =
    parse_value_and_objects cur ~flags:(fun f ->
        if on_mm f then () else err "%s: unknown flag %s" cur.cmd f)
  in
  Set_env
    { env_kind = kind; env_value = value; env_minmax = mm_result (); env_objects = objs }

let parse_drc cur kind =
  let value, objs =
    parse_value_and_objects cur ~flags:(fun f ->
        err "%s: unknown flag %s" cur.cmd f)
  in
  Set_drc { drc_kind = kind; drc_value = value; drc_objects = objs }

let parse_propagated cur =
  let objs = ref [] in
  iter_args cur
    ~on_flag:(fun f -> err "set_propagated_clock: unknown flag %s" f)
    ~on_pos:(fun t -> objs := !objs @ objects_of_tok cur.cmd t);
  Set_propagated_clock !objs

let parse_command_toks toks =
  match toks with
  | [] -> err "empty command"
  | Lexer.Atom word :: rest -> (
    let cur = { cmd = word; toks = rest } in
    match word with
    | "create_clock" -> parse_create_clock cur
    | "create_generated_clock" -> parse_create_generated_clock cur
    | "set_clock_latency" -> parse_clock_latency cur
    | "set_clock_uncertainty" -> parse_clock_uncertainty cur
    | "set_clock_transition" -> parse_clock_transition cur
    | "set_propagated_clock" -> parse_propagated cur
    | "set_input_delay" -> parse_io_delay cur ~output:false
    | "set_output_delay" -> parse_io_delay cur ~output:true
    | "set_case_analysis" -> parse_case_analysis cur
    | "set_disable_timing" -> parse_disable_timing cur
    | "set_false_path" -> parse_false_path cur
    | "set_multicycle_path" -> parse_multicycle cur
    | "set_min_delay" -> parse_delay_bound cur ~is_min:true
    | "set_max_delay" -> parse_delay_bound cur ~is_min:false
    | "set_clock_groups" -> parse_clock_groups cur
    | "set_clock_sense" -> parse_clock_sense cur
    | "set_input_transition" -> parse_env cur Input_transition
    | "set_load" -> parse_env cur Load
    | "set_drive" -> parse_env cur Drive
    | "set_max_transition" -> parse_drc cur Max_transition
    | "set_max_capacitance" -> parse_drc cur Max_capacitance
    | _ -> err "unknown command %s" word)
  | t :: _ -> err "command must start with a word, got %s" (Lexer.tok_to_string t)

let parse_command ?loc toks =
  try parse_command_toks toks with Msg msg -> raise (Error { loc; msg })

(* ------------------------------------------------------------------ *)
(* Error codes                                                         *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let lex_code msg =
  if contains msg "unterminated string" then "lex.unterminated-string"
  else if contains msg "unterminated brace" then "lex.unterminated-brace"
  else if contains msg "unterminated [" then "lex.unterminated-bracket"
  else if contains msg "unbalanced" then "lex.unbalanced"
  else "lex.error"

let error_code msg =
  if contains msg "unterminated" || contains msg "unbalanced" then lex_code msg
  else if contains msg "unknown command" then "sdc.unknown-command"
  else if contains msg "unknown flag" then "sdc.unknown-flag"
  else if contains msg "expects" || contains msg "missing"
          || contains msg "required" then "sdc.bad-args"
  else "sdc.parse"

(* ------------------------------------------------------------------ *)
(* Whole-source entry points                                           *)

let loc_of ?file line col =
  { Diag.file = (match file with Some f -> f | None -> "<string>"); line; col }

let read_whole_file path = In_channel.with_open_bin path In_channel.input_all

let parse_string_recover ?file src =
  let diags = Diag.collector () in
  let located =
    Lexer.tokenize_located
      ~on_error:(fun ~line ~col ~msg ->
        Diag.addf diags
          ~loc:(loc_of ?file line col)
          Diag.Error ~code:(lex_code msg) "%s" msg)
      src
  in
  let cmds =
    List.filter_map
      (fun { Lexer.lc_line; lc_col; lc_toks } ->
        let loc = loc_of ?file lc_line lc_col in
        match parse_command ~loc lc_toks with
        | cmd -> Some (loc, cmd)
        | exception Error { loc; msg } ->
          Diag.addf diags ?loc Diag.Error ~code:(error_code msg) "%s" msg;
          None)
      located
  in
  cmds, Diag.to_list diags

(* The lexer finishes the whole source before any command is parsed,
   so the first diagnostic is the error a fail-fast parse stops at. *)
let parse_located ?file src =
  match parse_string_recover ?file src with
  | located, [] -> located
  | _, d :: _ -> raise (Error { loc = d.Diag.dloc; msg = d.Diag.message })

let parse_string ?file src = List.map snd (parse_located ?file src)
