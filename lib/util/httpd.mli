(** Minimal hand-rolled HTTP/1.1 server for the live telemetry plane.

    Just enough HTTP to serve [GET /metrics] and friends to curl,
    Prometheus and a browser, with zero dependencies beyond [unix]:

    - one listening socket, one {e dedicated domain} running the
      accept loop — the pipeline's driver and pool domains never block
      on network I/O, and a slow scraper can at worst delay the next
      scraper, never the merge;
    - connections are served sequentially on that domain, one request
      per connection ([Connection: close]) — correct and tiny, and
      plenty for a telemetry endpoint scraped a few times a second;
    - the request surface is [GET]/[HEAD]; any other method is
      answered [405] with an [Allow: GET, HEAD] header before the
      handler runs, and no request body is ever read;
    - the header block is size-capped (16 KiB by default, configurable
      at {!start}) — an over-limit request is answered [413] — and
      reads run under a receive timeout, so a stuck client cannot pin
      the server domain;
    - a malformed request line is answered [400];
    - handlers run on the server domain and must therefore only touch
      thread-safe state (the {!Metrics}/{!Obs}/{!Eventlog}/{!Progress}
      registries all are).

    Binding to port 0 lets the OS pick a free port ({!port} reports the
    real one) — this is how tests avoid port races, and how [--serve 0]
    behaves. *)

type request = {
  rq_method : string;            (** ["GET"] or ["HEAD"] *)
  rq_path : string;              (** decoded path, e.g. ["/metrics"] *)
  rq_query : (string * string) list;  (** decoded query pairs, in order *)
}

type response = {
  rs_status : int;
  rs_content_type : string;
  rs_headers : (string * string) list;
      (** extra headers, e.g. [("Allow", "GET, HEAD")] *)
  rs_body : string;
}

val respond :
  ?status:int ->
  ?content_type:string ->
  ?headers:(string * string) list ->
  string ->
  response
(** Build a response (defaults: 200, [text/plain; charset=utf-8], no
    extra headers). *)

val not_found : response

val header : string -> (string * string) list -> string option
(** [header name headers] looks up a header case-insensitively. *)

type handler = request -> response
(** Must not raise; a raising handler is answered with a 500 and the
    server keeps going. *)

type t

val start :
  ?addr:string ->
  ?port:int ->
  ?max_header_bytes:int ->
  handler ->
  t
(** Bind [addr:port] (default [127.0.0.1:0]), start the accept-loop
    domain and return the running server. Requests whose header block
    exceeds [max_header_bytes] (default 16 KiB) are answered [413]
    without reaching the handler.
    @raise Failure when the address cannot be parsed or bound. *)

val addr : t -> string
(** The bound address, e.g. ["127.0.0.1"]. *)

val port : t -> int
(** The bound port — the OS-assigned one when [start] was given 0. *)

val stop : t -> unit
(** Close the listening socket and join the server domain. Idempotent.
    In-flight responses finish; no new connections are accepted. *)

val request :
  ?addr:string ->
  ?meth:string ->
  port:int ->
  string ->
  int * (string * string) list * string
(** Tiny blocking HTTP/1.1 client for tests and smoke checks:
    [request ~meth:"HEAD" ~port "/metrics"] sends a body-less request
    and returns [(status, headers, body)] with header names
    lowercased.
    @raise Unix.Unix_error / Failure on connection or protocol
    failure. *)

val get : ?addr:string -> port:int -> string -> int * string
(** [get ~port path] is [request ~meth:"GET" ~port path] without the
    headers. *)
