(** Parser from token trees to {!Ast.command}s. *)

exception Error of { loc : Mm_util.Diag.loc option; msg : string }
(** Raised with a message naming the offending command and argument,
    plus the source location of the command when known. *)

val parse_command : ?loc:Mm_util.Diag.loc -> Lexer.tok list -> Ast.command
(** Parse one command; [loc] is attached to any {!Error} raised.
    @raise Error on malformed input, unknown command words or unknown
    flags. *)

val parse_string_recover :
  ?file:string ->
  string ->
  (Mm_util.Diag.loc * Ast.command) list * Mm_util.Diag.t list
(** Tokenise and parse a whole SDC source, each command with the
    location of its first character. [file] (default ["<string>"])
    names the source in locations. Never raises on syntax: each
    malformed command (lexing or parsing) becomes a located
    [Error]-severity diagnostic and the parse resynchronises at the
    next command boundary, so the well-formed remainder is kept. *)

val parse_located :
  ?file:string -> string -> (Mm_util.Diag.loc * Ast.command) list
(** {!parse_string_recover} failing fast: raises its first diagnostic.
    @raise Error on syntax, lexer errors included (located). *)

val parse_string : ?file:string -> string -> Ast.command list
(** {!parse_located} without the locations. *)

val read_whole_file : string -> string
(** Read a file into a string. @raise Sys_error on IO failure. *)

val error_code : string -> string
(** Stable diagnostic code for a parse-error message
    (e.g. ["sdc.unknown-command"], ["lex.unterminated-brace"]);
    ["sdc.parse"] when unclassified. *)

