(** The live telemetry plane: a minimal read-only HTTP/1.1 server over
    the observability registries.

    [--serve [ADDR:]PORT] starts one server whose fixed endpoints read
    the process-global {!Metrics}, {!Progress}, {!Eventlog}, {!Obs} and
    {!Govern} state — all thread-safe, all already maintained whether
    or not serving is on, so attaching the server perturbs nothing:
    merged output is byte-identical with and without [--serve].
    Endpoints:

    - [GET /metrics] — Prometheus text exposition v0.0.4
      ({!Metrics.to_prometheus});
    - [GET /healthz] — one JSON object with process liveness and
      governance state: uptime, the bound serve endpoint
      ([{"addr","port","url"}] — how clients discover an autopicked
      port programmatically), run-root deadline remaining, memory
      watermark, quarantine/degradation counters and the derived
      degradation-ladder position;
    - [GET /progress] — the open stage and done/total/ETA per tracker
      as JSON ({!Progress.to_json});
    - [GET /events] — the recent event journal as NDJSON
      ({!Eventlog.to_ndjson}); [?n=N] limits to the newest N events;
    - [GET /trace] — Chrome trace_event JSON of the spans recorded so
      far ({!Obs.trace_event_json}; non-empty only when tracing is on,
      which [--serve] enables);
    - [GET /] — a plain-text index of the above.

    Just enough HTTP for curl, Prometheus and a browser, with zero
    dependencies beyond [unix]:

    - one listening socket and one {e dedicated domain} running the
      accept loop — the pipeline's driver and pool domains never block
      on network I/O, and a slow scraper can at worst delay the next
      scraper, never the merge;
    - connections are served sequentially on that domain, one request
      per connection ([Connection: close]);
    - [GET] and [HEAD] only: a [HEAD] response carries the [GET]
      headers, [Content-Length] included, and no body; any other
      method is answered [405] with [Allow: GET, HEAD], a header block
      over 16 KiB [413] and a malformed request line [400], all before
      routing; no request body is ever read;
    - reads run under a 5 s receive timeout, so a stuck client cannot
      pin the server domain;
    - unknown paths get a [404]; an exception while routing (the
      [serve.request] chaos site sits inside that guard) is answered
      [500] and the server keeps going. *)

val parse_spec : string -> (string * int, string) result
(** Parse a [--serve] argument: ["PORT"] or ["ADDR:PORT"], e.g.
    ["9090"], ["127.0.0.1:9090"], ["0.0.0.0:0"]. The port is decimal
    digits only, 0..65535; port 0 asks the OS for a free port (the
    bound port is reported at startup). [Error msg] on anything
    else. *)

type t

val start : addr:string -> port:int -> unit -> t
(** Bind [addr:port], start the accept-loop domain, journal a
    [serve.start] event (attrs [addr], [port] and the full [url]), and
    return the running server.
    @raise Failure when the address cannot be parsed or bound. *)

val addr : t -> string
val port : t -> int
(** The bound address/port (the OS-assigned port when given 0). *)

val stop : t -> unit
(** Close the listening socket and join the server domain. Idempotent.
    In-flight responses finish; no new connections are accepted. *)
