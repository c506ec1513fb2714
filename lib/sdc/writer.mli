(** Pretty-printer from {!Ast.command}s back to SDC text.

    [parse_string (write_commands cs)] yields commands equal to [cs]
    modulo flag ordering; this round-trip is property-tested. *)

val write_objects : Ast.objects -> string
val write_command : Ast.command -> string
val write_commands_annotated :
  ?header:string ->
  comment:(int -> Ast.command -> string option) ->
  Ast.command list ->
  string
(** One command per line after an optional ["# header"] line; [comment i
    cmd] may prepend a full-line ["# ..."] comment before the [i]-th
    command — the [--annotate] provenance output. Comment lines are
    skipped by the parser, so an annotated file still round-trips. *)

val write_commands : ?header:string -> Ast.command list -> string
(** {!write_commands_annotated} without comments. *)
