(* Telemetry endpoint routing. The built-in endpoints are pure reads
   of process-global observability state; nothing here writes into the
   pipeline, which is what keeps --serve byte-identity trivial. *)

let parse_spec s =
  let port_of p =
    match int_of_string_opt p with
    | Some n when n >= 0 && n <= 65535 -> Ok n
    | _ -> Error (Printf.sprintf "invalid port %S (want 0..65535)" p)
  in
  match String.rindex_opt s ':' with
  | None -> Result.map (fun p -> "127.0.0.1", p) (port_of s)
  | Some i ->
    let addr = String.sub s 0 i
    and p = String.sub s (i + 1) (String.length s - i - 1) in
    if addr = "" then Error (Printf.sprintf "empty address in %S" s)
    else Result.map (fun p -> addr, p) (port_of p)

(* ------------------------------------------------------------------ *)
(* /healthz                                                            *)

let started_ns = Obs.Clock.now_ns ()

(* The most recently started server, so /healthz (and anything else)
   can report the actual bound endpoint — the autopicked port used to
   be visible only in the stderr startup line. *)
let current : Httpd.t option ref = ref None
let current_mu = Mutex.create ()

let endpoint () =
  Mutex.protect current_mu (fun () ->
      Option.map (fun t -> Httpd.addr t, Httpd.port t) !current)

(* Degradation-ladder position, worst observed rung first. The rungs
   mirror Merge_flow's ladder (DESIGN.md §12): a clean run is
   [nominal]; retries (rung 1, Govern.retry) mean transient trouble
   absorbed; quarantines mean constraints were set aside; degraded
   cliques mean merge quality was traded for completion. *)
let ladder_position ~retries ~quarantined ~degraded =
  if degraded > 0 then "degraded"
  else if quarantined > 0 then "quarantined"
  else if retries > 0 then "retried"
  else "nominal"

let healthz_json () =
  let fl = Metrics.json_float in
  let retries = Metrics.get_counter "govern.retries"
  and quarantined = Metrics.get_counter "merge.quarantined"
  and degraded = Metrics.get_counter "merge.degraded_cliques" in
  let governance =
    match Govern.run_root () with
    | None -> {|{"active":false}|}
    | Some t ->
      Printf.sprintf {|{"active":true,"scope":"%s","remaining_s":%s,"cancelled":%s}|}
        (Metrics.json_escape (Govern.scope t))
        (match Govern.remaining_s t with None -> "null" | Some s -> fl s)
        (match Govern.cancelled t with
        | None -> "false"
        | Some r ->
          Printf.sprintf {|"%s"|} (Metrics.json_escape (Govern.reason_code r)))
  in
  let memory =
    Printf.sprintf {|{"limit_mb":%s,"over_watermark":%b}|}
      (match Govern.memory_limit_mb () with None -> "null" | Some l -> fl l)
      (Govern.memory_pressure () <> None)
  in
  let serve =
    match endpoint () with
    | None -> "null"
    | Some (a, p) ->
      Printf.sprintf {|{"addr":"%s","port":%d,"url":"http://%s:%d/"}|}
        (Metrics.json_escape a) p (Metrics.json_escape a) p
  in
  Printf.sprintf
    {|{"status":"ok","pid":%d,"uptime_s":%s,"serve":%s,"ladder":"%s","governance":%s,"memory":%s,"counters":{"govern.retries":%d,"merge.quarantined":%d,"merge.degraded_cliques":%d},"events_total":%d}|}
    (Unix.getpid ())
    (fl (Obs.Clock.elapsed_s started_ns))
    serve
    (ladder_position ~retries ~quarantined ~degraded)
    governance memory retries quarantined degraded (Eventlog.total ())

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

let index_body =
  String.concat "\n"
    [
      "modemerge telemetry";
      "";
      "  /metrics   Prometheus text exposition";
      "  /healthz   liveness + governance state (JSON)";
      "  /progress  per-stage done/total with ETA (JSON)";
      "  /events    recent event journal (NDJSON; ?n=N for newest N)";
      "  /trace     Chrome trace_event JSON of spans so far";
      "";
    ]

let handler (rq : Httpd.request) =
  match rq.Httpd.rq_path with
  | "/" | "/index.html" -> Httpd.respond index_body
  | "/metrics" ->
    Httpd.respond
      ~content_type:"text/plain; version=0.0.4; charset=utf-8"
      (Metrics.to_prometheus ())
  | "/healthz" ->
    Httpd.respond ~content_type:"application/json" (healthz_json () ^ "\n")
  | "/progress" ->
    Httpd.respond ~content_type:"application/json" (Progress.to_json () ^ "\n")
  | "/events" ->
    let limit =
      List.assoc_opt "n" rq.Httpd.rq_query
      |> Option.map int_of_string_opt |> Option.join
    in
    Httpd.respond ~content_type:"application/x-ndjson"
      (Eventlog.to_ndjson ?limit ())
  | "/trace" ->
    Httpd.respond ~content_type:"application/json" (Obs.trace_event_json ())
  | _ -> Httpd.not_found

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

type t = Httpd.t

let start ~addr ~port () =
  let t = Httpd.start ~addr ~port handler in
  Mutex.protect current_mu (fun () -> current := Some t);
  Eventlog.log "serve.start"
    ~attrs:
      [
        "addr", Httpd.addr t;
        "port", string_of_int (Httpd.port t);
        "url",
        Printf.sprintf "http://%s:%d/" (Httpd.addr t) (Httpd.port t);
      ];
  t

let addr = Httpd.addr
let port = Httpd.port

let stop t =
  Mutex.protect current_mu (fun () ->
      match !current with Some c when c == t -> current := None | _ -> ());
  Httpd.stop t
