exception Error of { line : int; msg : string }

let error line msg = raise (Error { line; msg })

(* ------------------------------------------------------------------ *)
(* Tokeniser                                                           *)

type tok =
  | Id of string
  | Punct of char  (** one of ( ) , ; . = *)
  | Const of bool  (** 1'b0 / 1'b1 *)

type ptok = { tok : tok; tline : int }

let is_id_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '$' || c = '/'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push tok = toks := { tok; tline = !line } :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      let fin = ref false in
      while not !fin do
        if !i + 1 >= n then error !line "unterminated comment"
        else if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          i := !i + 2;
          fin := true
        end
        else begin
          if src.[!i] = '\n' then incr line;
          incr i
        end
      done
    end
    else if c = '(' || c = ')' || c = ',' || c = ';' || c = '.' || c = '=' then begin
      push (Punct c);
      incr i
    end
    else if c = '\\' then begin
      (* escaped identifier: up to whitespace *)
      incr i;
      let start = !i in
      while !i < n && src.[!i] <> ' ' && src.[!i] <> '\t' && src.[!i] <> '\n' do
        incr i
      done;
      push (Id (String.sub src start (!i - start)))
    end
    else if c >= '0' && c <= '9' then begin
      (* sized constant like 1'b0 or a plain number *)
      let start = !i in
      while
        !i < n
        && (is_id_char src.[!i] || src.[!i] = '\'')
      do
        incr i
      done;
      let word = String.sub src start (!i - start) in
      match word with
      | "1'b0" | "1'h0" | "1'd0" -> push (Const false)
      | "1'b1" | "1'h1" | "1'd1" -> push (Const true)
      | _ -> push (Id word)
    end
    else if is_id_char c then begin
      let start = !i in
      while !i < n && is_id_char src.[!i] do
        incr i
      done;
      push (Id (String.sub src start (!i - start)))
    end
    else error !line (Printf.sprintf "unexpected character %c" c)
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parser: split into modules, then statements                         *)

type connection = C_net of string | C_const of bool | C_open

type stmt =
  | S_ports of string list  (** input/output handled by keyword *)
  | S_decl of string * string list  (** keyword, names *)
  | S_assign of string * string
  | S_inst of string * string * (string option * connection) list
      (** cell, instance, (formal, actual); formal None = positional *)

type vmodule = {
  m_name : string;
  m_stmts : stmt list;
  m_line : int;
}

let split_statements toks =
  (* statements are ';'-terminated within a module *)
  let rec modules acc = function
    | [] -> List.rev acc
    | { tok = Id "module"; tline } :: rest ->
      let name, rest =
        match rest with
        | { tok = Id n; _ } :: r -> n, r
        | t :: _ -> error t.tline "expected module name"
        | [] -> error tline "expected module name"
      in
      (* header port list up to ';' is one statement *)
      let rec collect_stmts stmts cur = function
        | [] -> error tline "missing endmodule"
        | { tok = Id "endmodule"; _ } :: r ->
          if cur <> [] then error tline "statement missing ';'";
          List.rev stmts, r
        | { tok = Punct ';'; _ } :: r ->
          collect_stmts (List.rev cur :: stmts) [] r
        | t :: r -> collect_stmts stmts (t :: cur) r
      in
      let stmts, rest = collect_stmts [] [] rest in
      modules ({ m_name = name; m_stmts = List.map parse_stmt stmts; m_line = tline } :: acc) rest
    | t :: _ -> error t.tline "expected 'module'"
  and parse_stmt toks =
    match toks with
    | [] -> S_decl ("", [])
    | { tok = Punct '('; _ } :: _ ->
      (* module header port list *)
      S_ports (idents toks)
    | { tok = Id ("input" | "output" | "wire" as kw); tline } :: rest ->
      S_decl (kw, decl_names kw tline rest)
    | { tok = Id "assign"; tline } :: rest -> (
      match rest with
      | [ { tok = Id lhs; _ }; { tok = Punct '='; _ }; { tok = Id rhs; _ } ] ->
        S_assign (lhs, rhs)
      | _ -> error tline "unsupported assign form")
    | { tok = Id "inout"; tline } :: _ -> error tline "inout ports not supported"
    | { tok = Id cell; tline } :: { tok = Id inst; _ } :: { tok = Punct '('; _ } :: rest
      ->
      S_inst (cell, inst, connections tline rest)
    | t :: _ -> error t.tline "unsupported statement"
  (* A declaration names one identifier or more, separated by commas;
     a name that follows a name is a statement that lost its ';'. *)
  and decl_names kw line toks =
    let rec name acc = function
      | { tok = Id s; tline } :: rest -> sep (s :: acc) tline rest
      | t :: _ -> error t.tline (Printf.sprintf "malformed %s declaration" kw)
      | [] when acc = [] ->
        error line (Printf.sprintf "%s declaration without a name" kw)
      | [] -> error line (Printf.sprintf "%s declaration ends in ','" kw)
    and sep acc last_line = function
      | [] -> List.rev acc
      | { tok = Punct ','; _ } :: rest -> name acc rest
      | { tok = Id _; _ } :: _ ->
        error last_line (Printf.sprintf "missing ';' after %s" (List.hd acc))
      | t :: _ -> error t.tline (Printf.sprintf "malformed %s declaration" kw)
    in
    name [] toks
  and idents toks =
    List.filter_map
      (fun t -> match t.tok with Id s -> Some s | Punct _ | Const _ -> None)
      toks
  and connections line toks =
    (* ".f(a), .g(), b, 1'b0 ... )" *)
    let rec go acc = function
      | [] -> error line "unterminated connection list"
      | [ { tok = Punct ')'; _ } ] -> List.rev acc
      | { tok = Punct ','; _ } :: rest -> go acc rest
      | { tok = Punct '.'; _ } :: { tok = Id formal; _ } :: { tok = Punct '('; _ }
        :: rest -> (
        match rest with
        | { tok = Punct ')'; _ } :: rest -> go ((Some formal, C_open) :: acc) rest
        | { tok = Id net; _ } :: { tok = Punct ')'; _ } :: rest ->
          go ((Some formal, C_net net) :: acc) rest
        | { tok = Const b; _ } :: { tok = Punct ')'; _ } :: rest ->
          go ((Some formal, C_const b) :: acc) rest
        | _ -> error line "malformed named connection")
      | { tok = Id net; _ } :: rest -> go ((None, C_net net) :: acc) rest
      | { tok = Const b; _ } :: rest -> go ((None, C_const b) :: acc) rest
      | t :: _ -> error t.tline "malformed connection list"
    in
    go [] toks
  in
  modules [] toks

(* ------------------------------------------------------------------ *)
(* Elaboration                                                         *)

let read ?(lib = Library.find) ?top src =
  let modules = split_statements (tokenize src) in
  let m =
    match top with
    | Some name -> (
      match List.find_opt (fun m -> m.m_name = name) modules with
      | Some m -> m
      | None -> error 1 (Printf.sprintf "no module named %s" name))
    | None -> (
      match List.rev modules with
      | m :: _ -> m
      | [] -> error 1 "no module found")
  in
  let d = Design.create m.m_name in
  (* Pass 1: ports. *)
  let inputs = Hashtbl.create 16 and outputs = Hashtbl.create 16 in
  List.iter
    (function
      | S_decl ("input", names) ->
        List.iter (fun n -> Hashtbl.replace inputs n ()) names
      | S_decl ("output", names) ->
        List.iter (fun n -> Hashtbl.replace outputs n ()) names
      | S_ports _ | S_decl _ | S_assign _ | S_inst _ -> ())
    m.m_stmts;
  let header_ports =
    List.concat_map (function S_ports ps -> ps | _ -> []) m.m_stmts
  in
  let declared =
    if header_ports <> [] then header_ports
    else
      Hashtbl.fold (fun k () acc -> k :: acc) inputs []
      @ Hashtbl.fold (fun k () acc -> k :: acc) outputs []
      |> List.sort compare
  in
  List.iter
    (fun p ->
      if Hashtbl.mem inputs p then ignore (Design.add_port d p Design.In)
      else if Hashtbl.mem outputs p then ignore (Design.add_port d p Design.Out)
      else error m.m_line (Printf.sprintf "port %s has no direction" p))
    declared;
  (* Helpers to attach by net name: nets are named as in the source;
     a port's net carries the port name. *)
  let net_of name = Design.get_net d name in
  let connect_port_nets () =
    List.iter
      (fun p ->
        match Design.find_port d p with
        | Some port -> Design.attach d (net_of p) (Design.port_pin d port)
        | None -> ())
      declared
  in
  connect_port_nets ();
  (* Tie cells for constants, shared per polarity. *)
  let tie_count = ref 0 in
  let tie_net b =
    incr tie_count;
    let name = Printf.sprintf "__tie%d" !tie_count in
    let cell = if b then Library.tiehi else Library.tielo in
    let inst = Design.add_inst d name cell in
    let n = net_of (name ^ "_n") in
    Design.attach d n (Design.inst_pin d inst 0);
    n
  in
  (* Pass 2: instances and assigns. *)
  let assign_count = ref 0 in
  List.iter
    (function
      | S_ports _ | S_decl _ -> ()
      | S_assign (lhs, rhs) ->
        incr assign_count;
        let name = Printf.sprintf "__assign%d" !assign_count in
        let inst = Design.add_inst d name Library.buf in
        Design.attach d (net_of rhs) (Design.inst_pin_by_name d inst "A");
        Design.attach d (net_of lhs) (Design.inst_pin_by_name d inst "Z")
      | S_inst (cell_name, inst_name, conns) -> (
        match lib cell_name with
        | None ->
          error m.m_line
            (Printf.sprintf
               "unknown cell %s (hierarchical designs must be flattened)"
               cell_name)
        | Some cell ->
          let inst = Design.add_inst d inst_name cell in
          List.iteri
            (fun pos (formal, actual) ->
              let pin_idx =
                match formal with
                | Some f -> (
                  match Lib_cell.pin_index cell f with
                  | idx -> idx
                  | exception Not_found ->
                    error m.m_line
                      (Printf.sprintf "cell %s has no pin %s" cell_name f))
                | None ->
                  if pos >= Array.length cell.Lib_cell.pins then
                    error m.m_line
                      (Printf.sprintf "too many connections on %s" inst_name)
                  else pos
              in
              match actual with
              | C_open -> ()
              | C_net net -> Design.attach d (net_of net) (Design.inst_pin d inst pin_idx)
              | C_const b -> Design.attach d (tie_net b) (Design.inst_pin d inst pin_idx))
            conns))
    m.m_stmts;
  d

let read_file ?lib ?top path =
  read ?lib ?top (In_channel.with_open_bin path In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)

let write d =
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ports = ref [] in
  Design.iter_ports d (fun p -> ports := Design.port_name d p :: !ports);
  let ports = List.rev !ports in
  out "module %s (%s);\n" (Design.design_name d) (String.concat ", " ports);
  Design.iter_ports d (fun p ->
      out "  %s %s;\n"
        (match Design.port_dir d p with Design.In -> "input" | Design.Out -> "output")
        (Design.port_name d p));
  (* In Verilog a port and its net share the port's name: nets touching
     a port pin are emitted under that port's name, everything else
     under its own name (declared as a wire). *)
  let vname = Hashtbl.create 64 in
  Design.iter_nets d (fun n ->
      let pins =
        (match Design.net_driver d n with Some p -> [ p ] | None -> [])
        @ Design.net_sinks d n
      in
      let port_pin =
        List.find_opt
          (fun p ->
            match Design.pin_owner d p with
            | Design.Port_pin _ -> true
            | Design.Inst_pin _ -> false)
          pins
      in
      match port_pin with
      | Some p -> Hashtbl.replace vname n (Design.pin_name d p)
      | None -> Hashtbl.replace vname n (Design.net_name d n));
  Design.iter_nets d (fun n ->
      let name = Hashtbl.find vname n in
      if Design.find_port d name = None then out "  wire %s;\n" name);
  (* A net touching several ports keeps the first port's name; the
     others are reconnected with assigns. *)
  Design.iter_nets d (fun n ->
      let name = Hashtbl.find vname n in
      List.iter
        (fun p ->
          match Design.pin_owner d p with
          | Design.Port_pin _ when Design.pin_name d p <> name ->
            out "  assign %s = %s;\n" (Design.pin_name d p) name
          | Design.Port_pin _ | Design.Inst_pin _ -> ())
        (Design.net_sinks d n));
  Design.iter_insts d (fun i ->
      let cell = Design.inst_cell d i in
      let conns =
        Array.to_list
          (Array.mapi
             (fun idx pin ->
               let pid = Design.inst_pin d i idx in
               match Design.pin_net d pid with
               | Some net ->
                 Some
                   (Printf.sprintf ".%s(%s)" pin.Lib_cell.pin_name
                      (Hashtbl.find vname net))
               | None -> None)
             cell.Lib_cell.pins)
        |> List.filter_map Fun.id
      in
      out "  %s %s (%s);\n" cell.Lib_cell.cell_name (Design.inst_name d i)
        (String.concat ", " conns));
  out "endmodule\n";
  Buffer.contents buf

let write_file path d =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (write d))
