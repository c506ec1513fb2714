(* Tiny blocking HTTP/1.1 client for the telemetry-plane suites
   (test_eventlog, test_serve): one request per connection, no request
   body, the whole response read until the server closes. *)

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

(* [header name headers] looks a header up case-insensitively. *)
let header name headers = List.assoc_opt (String.lowercase_ascii name) headers

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* [request ~meth:"HEAD" ~port "/metrics"] sends a body-less request
   and returns [(status, headers, body)] with header names lowercased.
   Raises [Unix.Unix_error] on connection failure. *)
let request ?(addr = "127.0.0.1") ?(meth = "GET") ~port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with _ -> ())
    (fun () ->
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO 30.0;
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
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

(* [get ~port path] is [request ~meth:"GET" ~port path] without the
   headers. *)
let get ?addr ~port path =
  let status, _headers, body = request ?addr ~meth:"GET" ~port path in
  status, body
