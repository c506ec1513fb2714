(* Minimal HTTP/1.1 server on a dedicated domain. See the .mli for the
   scope contract: GET/HEAD only, one request per connection,
   size-capped reads under a receive timeout. *)

type request = {
  rq_method : string;
  rq_path : string;
  rq_query : (string * string) list;
}

type response = {
  rs_status : int;
  rs_content_type : string;
  rs_headers : (string * string) list;
  rs_body : string;
}

let respond ?(status = 200) ?(content_type = "text/plain; charset=utf-8")
    ?(headers = []) body =
  {
    rs_status = status;
    rs_content_type = content_type;
    rs_headers = headers;
    rs_body = body;
  }

let not_found = respond ~status:404 "not found\n"

type handler = request -> response

type t = {
  sock : Unix.file_descr;
  t_addr : string;
  t_port : int;
  t_max_header_bytes : int;
  stopping : bool Atomic.t;
  mutable domain : unit Domain.t option;
}

let addr t = t.t_addr
let port t = t.t_port

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)

let default_max_header_bytes = 16 * 1024

(* Methods the server routes to a handler at all; anything else is
   answered 405 before the handler runs. *)
let known_methods = [ "GET"; "HEAD" ]

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Content Too Large"
  | 500 -> "Internal Server Error"
  | _ -> "Status"

let percent_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '%' when i + 2 < n -> (
        match hex s.[i + 1], hex s.[i + 2] with
        | Some h, Some l ->
          Buffer.add_char b (Char.chr ((h * 16) + l));
          go (i + 3)
        | _ ->
          Buffer.add_char b '%';
          go (i + 1))
      | '+' ->
        Buffer.add_char b ' ';
        go (i + 1)
      | c ->
        Buffer.add_char b c;
        go (i + 1)
  in
  go 0;
  Buffer.contents b

let parse_query q =
  List.filter_map
    (fun pair ->
      if pair = "" then None
      else
        match String.index_opt pair '=' with
        | None -> Some (percent_decode pair, "")
        | Some eq ->
          Some
            ( percent_decode (String.sub pair 0 eq),
              percent_decode
                (String.sub pair (eq + 1) (String.length pair - eq - 1)) ))
    (String.split_on_char '&' q)

(* "GET /path?query HTTP/1.1" -> method/path/query. *)
let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; _version ] ->
    let path, query =
      match String.index_opt target '?' with
      | None -> target, []
      | Some q ->
        ( String.sub target 0 q,
          parse_query
            (String.sub target (q + 1) (String.length target - q - 1)) )
    in
    Some (meth, percent_decode path, query)
  | _ -> None

(* "Header-Name: value" lines -> lowercased assoc, in order. *)
let parse_header_lines lines =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | None -> None
      | Some c ->
        let name = String.lowercase_ascii (String.trim (String.sub line 0 c)) in
        let value =
          String.trim (String.sub line (c + 1) (String.length line - c - 1))
        in
        if name = "" then None else Some (name, value))
    lines

let header name headers = List.assoc_opt (String.lowercase_ascii name) headers

(* Outcome of reading one request off the wire. *)
type read_result =
  | Req of request
  | Reject of response    (* malformed / over-limit / unknown method *)
  | Gone                  (* peer went away before sending anything *)

(* Read the header block (up to [max_header]; over-limit is a 413).
   No request body is ever read. The 4xx is produced here so
   [serve_connection] just sends it. *)
let read_request ~max_header fd =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 512 in
  let too_large = respond ~status:413 "request too large\n" in
  (* Length of the header block in [acc], up to the blank line. *)
  let head_end () =
    let s = Buffer.contents acc in
    let l = String.length s in
    let rec find i =
      if i + 4 <= l && String.sub s i 4 = "\r\n\r\n" then Some i
      else if i + 2 <= l && String.sub s i 2 = "\n\n" then Some i
      else if i + 1 < l then find (i + 1)
      else None
    in
    find 0
  in
  let rec read_head () =
    match head_end () with
    | Some head_len ->
      if head_len > max_header then Error too_large else Ok head_len
    | None ->
      if Buffer.length acc > max_header then Error too_large
      else (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> Error (respond ~status:400 "bad request\n")
        | n ->
          Buffer.add_subbytes acc buf 0 n;
          read_head ()
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          Error (respond ~status:400 "bad request\n"))
  in
  match read_head () with
  | Error rs -> if Buffer.length acc = 0 then Gone else Reject rs
  | Ok head_len -> (
    let line = List.hd (String.split_on_char '\n' (Buffer.sub acc 0 head_len)) in
    let req_line =
      if String.ends_with ~suffix:"\r" line then
        String.sub line 0 (String.length line - 1)
      else line
    in
    match parse_request_line req_line with
    | None -> Reject (respond ~status:400 "bad request\n")
    | Some (meth, path, query) ->
      if not (List.mem meth known_methods) then
        Reject
          (respond ~status:405
             ~headers:[ "Allow", String.concat ", " known_methods ]
             "method not allowed\n")
      else Req { rq_method = meth; rq_path = path; rq_query = query })

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send_response fd rs =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) rs.rs_headers)
  in
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: close\r\n\r\n%s"
       rs.rs_status (status_text rs.rs_status) rs.rs_content_type
       (String.length rs.rs_body) extra rs.rs_body)

(* ------------------------------------------------------------------ *)
(* Server loop                                                         *)

let serve_connection t handler fd =
  (* A stuck or byte-dribbling client gets cut off by the receive
     timeout instead of pinning the server domain. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0 with _ -> ());
  match read_request ~max_header:t.t_max_header_bytes fd with
  | Gone -> ()
  | Reject rs -> ( try send_response fd rs with _ -> ())
  | Req rq ->
    let rs =
      match handler rq with
      | rs -> rs
      | exception _ -> respond ~status:500 "internal error\n"
    in
    (try send_response fd rs with _ -> ())

let accept_loop t handler =
  let rec go () =
    match Unix.accept t.sock with
    | fd, _peer ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () -> serve_connection t handler fd);
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) ->
      (* The listening socket was closed by [stop] (or the OS gave up);
         either way the server is done. *)
      if Atomic.get t.stopping then () else ()
  in
  go ()

let resolve addr =
  try Unix.inet_addr_of_string addr
  with _ -> (
    (* Accept a hostname like "localhost" too. *)
    match Unix.getaddrinfo addr "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
    | _ -> failwith (Printf.sprintf "cannot resolve address %S" addr))

let start ?(addr = "127.0.0.1") ?(port = 0)
    ?(max_header_bytes = default_max_header_bytes) handler =
  let inet = resolve addr in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (inet, port));
     Unix.listen sock 16
   with e ->
     (try Unix.close sock with _ -> ());
     failwith
       (Printf.sprintf "cannot bind %s:%d (%s)" addr port
          (Printexc.to_string e)));
  let bound_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t =
    {
      sock;
      t_addr = Unix.string_of_inet_addr inet;
      t_port = bound_port;
      t_max_header_bytes = max_header_bytes;
      stopping = Atomic.make false;
      domain = None;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> accept_loop t handler));
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Closing the listening socket makes the blocked accept fail,
       which terminates the loop. *)
    (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with _ -> ());
    (try Unix.close t.sock with _ -> ());
    match t.domain with
    | Some d ->
      Domain.join d;
      t.domain <- None
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Tiny client (tests and smoke checks)                                *)

let request ?(addr = "127.0.0.1") ?(meth = "GET") ~port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with _ -> ())
    (fun () ->
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO 30.0;
      Unix.connect sock (Unix.ADDR_INET (resolve addr, port));
      write_all sock
        (Printf.sprintf "%s %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n"
           meth path addr);
      let buf = Bytes.create 4096 in
      let acc = Buffer.create 1024 in
      let rec drain () =
        match Unix.read sock buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes acc buf 0 n;
          drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      let raw = Buffer.contents acc in
      (* Split the status line and headers off. *)
      let body_start =
        let rec find i =
          if i + 3 >= String.length raw then String.length raw
          else if String.sub raw i 4 = "\r\n\r\n" then i + 4
          else find (i + 1)
        in
        find 0
      in
      let headers =
        if body_start <= 4 then []
        else
          String.sub raw 0 (body_start - 4)
          |> String.split_on_char '\n'
          |> List.map (fun l ->
                 if l <> "" && l.[String.length l - 1] = '\r' then
                   String.sub l 0 (String.length l - 1)
                 else l)
          |> fun lines ->
          (match lines with [] -> [] | _ :: hs -> parse_header_lines hs)
      in
      let status =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
        | _ -> 0
      in
      status, headers, String.sub raw body_start (String.length raw - body_start))

let get ?addr ~port path =
  let status, _headers, body = request ?addr ~meth:"GET" ~port path in
  status, body
