(** The live telemetry plane: read-only HTTP endpoints over the
    observability registries.

    [--serve [ADDR:]PORT] starts one {!Httpd} server whose built-in
    handler reads the process-global {!Metrics}, {!Progress},
    {!Eventlog}, {!Obs} and {!Govern} state — all thread-safe, all
    already maintained whether or not serving is on, so attaching the
    server perturbs nothing: merged output is byte-identical with and
    without [--serve]. Endpoints:

    - [GET /metrics] — Prometheus text exposition v0.0.4
      ({!Metrics.to_prometheus});
    - [GET /healthz] — one JSON object with process liveness and
      governance state: uptime, the bound serve endpoint
      ([{"addr","port","url"}] — how clients discover an autopicked
      port programmatically), run-root deadline remaining, memory
      watermark, retry/quarantine/degradation counters and the derived
      degradation-ladder position;
    - [GET /progress] — per-stage done/total/ETA JSON
      ({!Progress.to_json});
    - [GET /events] — the recent event journal as NDJSON
      ({!Eventlog.to_ndjson}); [?n=N] limits to the newest N events;
    - [GET /trace] — Chrome trace_event JSON of the spans recorded so
      far ({!Obs.trace_event_json}; non-empty only when tracing is on,
      which [--serve] enables);
    - [GET /] — a plain-text index of the above.

    Unknown paths get a 404; {!Httpd} answers any method other than
    [GET]/[HEAD] with a 405 before this handler runs. *)

val parse_spec : string -> (string * int, string) result
(** Parse a [--serve] argument: ["PORT"] or ["ADDR:PORT"], e.g.
    ["9090"], ["127.0.0.1:9090"], ["0.0.0.0:0"]. Port 0 asks the OS
    for a free port (the bound port is reported at startup).
    [Error msg] on anything else. *)

val endpoint : unit -> (string * int) option
(** The bound [(addr, port)] of the most recently started server, if
    one is running — what [/healthz] reports under ["serve"]. *)

val handler : Httpd.handler
(** The routing handler, exposed for in-process tests. *)

type t

val start : addr:string -> port:int -> unit -> t
(** Bind and start serving, journal a [serve.start] event (attrs
    [addr], [port] and the full [url]), and return the running server.
    @raise Failure when the address cannot be parsed or bound. *)

val addr : t -> string
val port : t -> int
(** The bound address/port (the OS-assigned port when given 0). *)

val stop : t -> unit
(** Shut the server down and clear {!endpoint}. Idempotent. *)
