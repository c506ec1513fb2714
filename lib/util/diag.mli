(** Structured diagnostics.

    Every recoverable problem in the pipeline — lexing, parsing,
    resolution, merging — is reported as a {!t}: a severity, a stable
    error code, an optional source location and a message. Diagnostics
    are accumulated in a {!collector} per run and rendered either as
    one-per-line text ([file:line:col: severity[code]: msg], the format
    the CLI prints to stderr) or as a JSON array for machine
    consumption.

    Error codes are stable dotted identifiers, grouped by subsystem:
    - [lex.*]    tokeniser errors (e.g. [lex.unterminated-string])
    - [sdc.*]    parse/resolve errors (e.g. [sdc.unknown-command],
                 [sdc.no-match])
    - [merge.*]  merge-flow degradation (e.g. [merge.quarantined],
                 [merge.group-degraded])
    - [io.*]     file/netlist loading (e.g. [io.netlist])

    Codes are part of the tool's observable interface: scripts may
    filter on them, so changing one is a breaking change. *)

type severity = Info | Warning | Error | Fatal

val severity_to_string : severity -> string
val severity_rank : severity -> int
(** [Info] = 0 ... [Fatal] = 3; higher is worse. *)

type loc = { file : string; line : int; col : int }
(** [line]/[col] are 1-based; 0 means unknown (omitted when rendered).
    [file] may be ["<string>"] for in-memory sources. *)

val loc : ?line:int -> ?col:int -> string -> loc
(** [loc file] with unknown line/col unless given. *)

val sys_error_message : path:string -> string -> string
(** A [Sys_error] message about [path], less the ["PATH: "] it leads
    with when it does: a diagnostic carries the path as its location. *)

type t = {
  severity : severity;
  code : string;
  dloc : loc option;
  message : string;
}

val make : ?loc:loc -> severity -> code:string -> string -> t

val makef :
  ?loc:loc -> severity -> code:string -> ('a, unit, string, t) format4 -> 'a

val to_string : t -> string
(** [file:line:col: severity[code]: msg]; unknown location parts are
    omitted ([file: severity[code]: msg], [severity[code]: msg]). *)

val to_json : t -> string
(** One JSON object, e.g.
    [{"severity":"error","code":"sdc.parse","file":"a.sdc","line":3,"col":1,"message":"..."}] *)

val render_json : t list -> string
(** JSON array of {!to_json} objects. *)

val messages : t list -> string list
(** Messages only, in order — the legacy [string list] warning shape. *)

val has_errors : t list -> bool
(** True iff any diagnostic is [Error] or [Fatal]. *)

(** {2 Per-run accumulation} *)

type collector

val collector : unit -> collector

val addf :
  collector ->
  ?loc:loc ->
  severity ->
  code:string ->
  ('a, unit, string, unit) format4 ->
  'a

val to_list : collector -> t list
(** Diagnostics in insertion order. *)
