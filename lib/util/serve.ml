(* The live telemetry plane: a minimal HTTP/1.1 server on a dedicated
   domain and its fixed endpoint table. See the .mli for the scope
   contract: GET/HEAD only, one request per connection, size-capped
   reads under a receive timeout. The endpoints are pure reads of
   process-global observability state; nothing here writes into the
   pipeline, which is what keeps --serve byte-identity trivial. *)

let parse_spec s =
  let port_of p =
    let digits = p <> "" && String.for_all (fun c -> c >= '0' && c <= '9') p in
    match if digits then int_of_string_opt p else None with
    | Some n when n <= 65535 -> Ok n
    | _ -> Error (Printf.sprintf "invalid port %S (want 0..65535)" p)
  in
  match String.rindex_opt s ':' with
  | None -> Result.map (fun p -> "127.0.0.1", p) (port_of s)
  | Some i ->
    let addr = String.sub s 0 i
    and p = String.sub s (i + 1) (String.length s - i - 1) in
    if addr = "" then Error (Printf.sprintf "empty address in %S" s)
    else Result.map (fun p -> addr, p) (port_of p)

type t = {
  sock : Unix.file_descr;
  t_addr : string;
  t_port : int;
  stopping : bool Atomic.t;
  mutable domain : unit Domain.t option;
}

let addr t = t.t_addr
let port t = t.t_port
let url t = Printf.sprintf "http://%s:%d/" t.t_addr t.t_port

(* ------------------------------------------------------------------ *)
(* Requests and responses                                              *)

type request = {
  rq_method : string; (* "GET" or "HEAD" *)
  rq_path : string; (* decoded *)
  rq_query : (string * string) list; (* decoded, in order *)
}

type response = {
  rs_status : int;
  rs_content_type : string;
  rs_headers : (string * string) list; (* extra, e.g. Allow *)
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

let max_header_bytes = 16 * 1024

(* Methods that reach routing at all; anything else is answered 405. *)
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

(* Outcome of reading one request off the wire. *)
type read_result =
  | Req of request
  | Reject of response    (* malformed / over-limit / unknown method *)
  | Gone                  (* peer went away before sending anything *)

(* Read the header block (over [max_header_bytes] is a 413). No request
   body is ever read. The 4xx is produced here so [serve_connection]
   just sends it. *)
let read_request fd =
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
      if head_len > max_header_bytes then Error too_large else Ok head_len
    | None ->
      if Buffer.length acc > max_header_bytes then Error too_large
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

(* A HEAD response carries the GET headers, Content-Length included,
   and no body (RFC 9110 §9.3.2). *)
let send_response ?(head = false) fd rs =
  let extra =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) rs.rs_headers)
  in
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: close\r\n\r\n%s"
       rs.rs_status (status_text rs.rs_status) rs.rs_content_type
       (String.length rs.rs_body) extra
       (if head then "" else rs.rs_body))

(* ------------------------------------------------------------------ *)
(* /healthz                                                            *)

let started_ns = Obs.Clock.now_ns ()

(* Degradation-ladder position, worst observed rung first. The rungs
   mirror Merge_flow's ladder (DESIGN.md §12): a clean run is
   [nominal]; quarantines mean constraints were set aside; degraded
   cliques mean merge quality was traded for completion. *)
let ladder_position ~quarantined ~degraded =
  if degraded > 0 then "degraded"
  else if quarantined > 0 then "quarantined"
  else "nominal"

let healthz_json t =
  let fl = Metrics.json_float and esc = Metrics.json_escape in
  let quarantined = Metrics.get_counter "merge.quarantined"
  and degraded = Metrics.get_counter "merge.degraded_cliques" in
  let governance =
    match Govern.run_root () with
    | None -> {|{"active":false}|}
    | Some g ->
      Printf.sprintf {|{"active":true,"scope":"%s","remaining_s":%s,"cancelled":%s}|}
        (esc (Govern.scope g))
        (match Govern.remaining_s g with None -> "null" | Some s -> fl s)
        (match Govern.cancelled g with
        | None -> "false"
        | Some r -> Printf.sprintf {|"%s"|} (esc (Govern.reason_code r)))
  in
  let memory =
    Printf.sprintf {|{"limit_mb":%s,"over_watermark":%b}|}
      (match Govern.memory_limit_mb () with None -> "null" | Some l -> fl l)
      (Govern.memory_pressure () <> None)
  in
  Printf.sprintf
    {|{"status":"ok","pid":%d,"uptime_s":%s,"serve":{"addr":"%s","port":%d,"url":"%s"},"ladder":"%s","governance":%s,"memory":%s,"counters":{"merge.quarantined":%d,"merge.degraded_cliques":%d},"events_total":%d}|}
    (Unix.getpid ())
    (fl (Obs.Clock.elapsed_s started_ns))
    (esc t.t_addr) t.t_port (esc (url t))
    (ladder_position ~quarantined ~degraded)
    governance memory quarantined degraded (Eventlog.total ())

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

let index_body =
  String.concat "\n"
    [
      "modemerge telemetry";
      "";
      "  /metrics   Prometheus text exposition";
      "  /healthz   liveness + governance state (JSON)";
      "  /progress  open stage + done/total with ETA (JSON)";
      "  /events    recent event journal (NDJSON; ?n=N for newest N)";
      "  /trace     Chrome trace_event JSON of spans so far";
      "";
    ]

let route t rq =
  match rq.rq_path with
  | "/" | "/index.html" -> respond index_body
  | "/metrics" ->
    respond ~content_type:"text/plain; version=0.0.4; charset=utf-8"
      (Metrics.to_prometheus ())
  | "/healthz" ->
    respond ~content_type:"application/json" (healthz_json t ^ "\n")
  | "/progress" ->
    respond ~content_type:"application/json" (Progress.to_json () ^ "\n")
  | "/events" ->
    let limit =
      Option.bind (List.assoc_opt "n" rq.rq_query) int_of_string_opt
    in
    respond ~content_type:"application/x-ndjson" (Eventlog.to_ndjson ?limit ())
  | "/trace" ->
    respond ~content_type:"application/json" (Obs.trace_event_json ())
  | _ -> respond ~status:404 "not found\n"

(* ------------------------------------------------------------------ *)
(* Server loop                                                         *)

let serve_connection t fd =
  (* A stuck or byte-dribbling client gets cut off by the receive
     timeout instead of pinning the server domain. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0 with _ -> ());
  match read_request fd with
  | Gone -> ()
  | Reject rs -> ( try send_response fd rs with _ -> ())
  | Req rq ->
    let rs =
      match
        Chaos.hit "serve.request";
        route t rq
      with
      | rs -> rs
      | exception _ -> respond ~status:500 "internal error\n"
    in
    (try send_response ~head:(rq.rq_method = "HEAD") fd rs with _ -> ())

let accept_loop t =
  let rec go () =
    match Unix.accept t.sock with
    | fd, _peer ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () -> serve_connection t fd);
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) ->
      (* The listening socket was closed by [stop] (or the OS gave up);
         either way the server is done. *)
      ()
  in
  go ()

let resolve addr =
  try Unix.inet_addr_of_string addr
  with _ -> (
    (* Accept a hostname like "localhost" too. *)
    match Unix.getaddrinfo addr "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
    | _ -> failwith (Printf.sprintf "cannot resolve address %S" addr))

let start ~addr ~port () =
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
      stopping = Atomic.make false;
      domain = None;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> accept_loop t));
  Eventlog.log "serve.start"
    ~attrs:[ "addr", t.t_addr; "port", string_of_int t.t_port; "url", url t ];
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
