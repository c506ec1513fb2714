(** JSON rendering: the one place the tool turns strings and numbers
    into JSON text.

    Every export renders through these five functions: the metrics and
    trace exports and the event journal ({!Obs}), [--diag-json]
    ({!Diag}), the lineage tables ({!Prov}), the audit report and the
    bench trajectory files. Values are pre-rendered JSON text, so
    documents compose by nesting calls; integers and booleans are
    rendered with [string_of_int] / [string_of_bool], which are
    already valid JSON. *)

val str : string -> string
(** A JSON string literal: quoted, with quote, backslash and control
    characters escaped. *)

val num : float -> string
(** A JSON number ([%.9g]); non-finite values become [0] so an
    exported file never contains [nan]/[inf] tokens. *)

val arr : string list -> string
(** [[v1,v2,...]] from rendered values. *)

val obj : (string * string) list -> string
(** [{"k1":v1,...}] from keys and rendered values, in list order. *)

val strs : string list -> string
(** An array of string literals. *)
