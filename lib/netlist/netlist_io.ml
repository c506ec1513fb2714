let emit put d =
  put (Printf.sprintf "design %s\n" (Design.design_name d));
  Design.iter_ports d (fun p ->
      let dir =
        match Design.port_dir d p with Design.In -> "in" | Design.Out -> "out"
      in
      put (Printf.sprintf "port %s %s\n" dir (Design.port_name d p)));
  Design.iter_insts d (fun i ->
      put
        (Printf.sprintf "inst %s %s\n" (Design.inst_name d i)
           (Design.inst_cell d i).Lib_cell.cell_name));
  Design.iter_nets d (fun n ->
      let pins =
        (match Design.net_driver d n with Some p -> [ p ] | None -> [])
        @ Design.net_sinks d n
      in
      put
        (Printf.sprintf "net %s %s\n" (Design.net_name d n)
           (String.concat " " (List.map (Design.pin_name d) pins))))

let write oc d = emit (output_string oc) d

let to_string d =
  let buf = Buffer.create 4096 in
  emit (Buffer.add_string buf) d;
  Buffer.contents buf

let fail lineno msg =
  failwith (Printf.sprintf "netlist: line %d: %s" lineno msg)

(* The reader walks the text in place: each line's words are offsets
   into [text], and a word becomes a string only where the design keeps
   it or a table lookup needs it. Words are separated by spaces and
   tabs; a '#' ends the line. The per-word helpers keep to refs and
   loops: a local recursive function there would allocate a closure on
   every call. *)

(* The first [c] in [text.[s..e)], or [e]. *)
let index_in text s e c =
  let k = ref s in
  while !k < e && text.[!k] <> c do
    incr k
  done;
  !k

(* [text.[s..e)] equals [w]. *)
let word_is text s e w =
  e - s = String.length w
  &&
  let k = ref 0 in
  while !k < e - s && text.[s + !k] = w.[!k] do
    incr k
  done;
  !k = e - s

(* The pin [text.[s..e)] names, or -1: a port, or "inst/PIN" resolved
   through the instance's cell without cutting out the pin name. *)
let find_pin d text s e =
  let k = index_in text s e '/' in
  if k = e then
    match Design.find_port d (String.sub text s (e - s)) with
    | Some port -> Design.port_pin d port
    | None -> -1
  else
    match Design.find_inst d (String.sub text s (k - s)) with
    | None -> -1
    | Some inst ->
      let pins = (Design.inst_cell d inst).Lib_cell.pins in
      let i = ref 0 in
      while
        !i < Array.length pins
        && not (word_is text (k + 1) e pins.(!i).Lib_cell.pin_name)
      do
        incr i
      done;
      if !i < Array.length pins then Design.inst_pin d inst !i else -1

let of_string text =
  let len = String.length text in
  let design = ref None in
  let get_design lineno =
    match !design with
    | Some d -> d
    | None -> fail lineno "expected 'design <name>' first"
  in
  (* Word [i] of the current line is [text.[starts.(i)..stops.(i))]. *)
  let starts = ref (Array.make 16 0) and stops = ref (Array.make 16 0) in
  let n = ref 0 in
  let push s e =
    if !n = Array.length !starts then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      starts := grow !starts;
      stops := grow !stops
    end;
    !starts.(!n) <- s;
    !stops.(!n) <- e;
    incr n
  in
  let word i = String.sub text !starts.(i) (!stops.(i) - !starts.(i)) in
  let is i w = word_is text !starts.(i) !stops.(i) w in
  let line lineno =
    match !n with
    | 0 -> ()
    | n ->
      if is 0 "design" then begin
        if n <> 2 then fail lineno "usage: design <name>";
        if !design <> None then fail lineno "duplicate design line";
        design := Some (Design.create (word 1))
      end
      else if is 0 "port" then begin
        let d = get_design lineno in
        if n <> 3 then fail lineno "usage: port <in|out> <name>";
        let dir =
          if is 1 "in" then Design.In
          else if is 1 "out" then Design.Out
          else fail lineno "port direction must be 'in' or 'out'"
        in
        try ignore (Design.add_port d (word 2) dir)
        with Invalid_argument msg -> fail lineno msg
      end
      else if is 0 "inst" then begin
        let d = get_design lineno in
        if n <> 3 then fail lineno "usage: inst <name> <cell>";
        let cell = word 2 in
        match Library.find cell with
        | Some c -> (
          try ignore (Design.add_inst d (word 1) c)
          with Invalid_argument msg -> fail lineno msg)
        | None -> fail lineno (Printf.sprintf "unknown cell %s" cell)
      end
      else if is 0 "net" then begin
        let d = get_design lineno in
        if n < 3 then fail lineno "usage: net <name> <pin> <pin>...";
        let net = Design.get_net d (word 1) in
        for i = 2 to n - 1 do
          match find_pin d text !starts.(i) !stops.(i) with
          | -1 -> fail lineno ("Design: no pin named " ^ word i)
          | pin -> (
            try Design.attach d net pin
            with Invalid_argument msg -> fail lineno msg)
        done
      end
      else fail lineno (Printf.sprintf "unknown keyword %s" (word 0))
  in
  let rec scan lineno pos =
    if pos <= len then begin
      let eol = index_in text pos len '\n' in
      let stop = index_in text pos eol '#' in
      n := 0;
      let k = ref pos in
      while !k < stop do
        if text.[!k] = ' ' || text.[!k] = '\t' then incr k
        else begin
          let s = !k in
          while !k < stop && text.[!k] <> ' ' && text.[!k] <> '\t' do
            incr k
          done;
          push s !k
        end
      done;
      line lineno;
      scan (lineno + 1) (eol + 1)
    end
  in
  scan 1 0;
  match !design with
  | Some d -> d
  | None -> failwith "netlist: empty input"

let read ic = of_string (In_channel.input_all ic)

let read_file path = of_string (In_channel.with_open_bin path In_channel.input_all)

let write_file path d =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> write oc d)
