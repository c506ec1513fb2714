type severity = Info | Warning | Error | Fatal

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"
  | Fatal -> "fatal"

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2 | Fatal -> 3

type loc = { file : string; line : int; col : int }

let loc ?(line = 0) ?(col = 0) file = { file; line; col }

let sys_error_message ~path msg =
  let prefix = path ^ ": " in
  if String.starts_with ~prefix msg then
    String.sub msg (String.length prefix)
      (String.length msg - String.length prefix)
  else msg

type t = {
  severity : severity;
  code : string;
  dloc : loc option;
  message : string;
}

let make ?loc severity ~code message = { severity; code; dloc = loc; message }

let makef ?loc severity ~code fmt =
  Printf.ksprintf (fun s -> make ?loc severity ~code s) fmt

let loc_prefix = function
  | None -> ""
  | Some { file; line; col } ->
    let b = Buffer.create 32 in
    if file <> "" then Buffer.add_string b file;
    if line > 0 then begin
      if Buffer.length b > 0 then Buffer.add_char b ':';
      Buffer.add_string b (string_of_int line);
      if col > 0 then begin
        Buffer.add_char b ':';
        Buffer.add_string b (string_of_int col)
      end
    end;
    if Buffer.length b > 0 then Buffer.add_string b ": ";
    Buffer.contents b

let to_string d =
  Printf.sprintf "%s%s[%s]: %s" (loc_prefix d.dloc)
    (severity_to_string d.severity)
    d.code d.message

let to_json d =
  let where =
    match d.dloc with
    | None -> []
    | Some { file; line; col } ->
      ("file", Json.str file)
      :: List.filter_map
           (fun (k, n) -> if n > 0 then Some (k, string_of_int n) else None)
           [ "line", line; "col", col ]
  in
  Json.obj
    ([ "severity", Json.str (severity_to_string d.severity);
       "code", Json.str d.code ]
    @ where
    @ [ "message", Json.str d.message ])

let render_json ds = Json.arr (List.map to_json ds)
let messages ds = List.map (fun d -> d.message) ds

let has_errors ds =
  List.exists (fun d -> severity_rank d.severity >= severity_rank Error) ds

type collector = { mutable rev : t list }

let collector () = { rev = [] }
let add c d = c.rev <- d :: c.rev

let addf c ?loc severity ~code fmt =
  Printf.ksprintf (fun s -> add c (make ?loc severity ~code s)) fmt

let to_list c = List.rev c.rev
