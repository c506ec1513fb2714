(** Tokeniser for the SDC (Tcl-flavoured) constraint syntax.

    Produces one token-tree list per command. Handles [#] comments,
    backslash line continuation, [;] command separators, double-quoted
    strings, brace-delimited word lists and nested [\[...\]] command
    substitution (used for object queries). *)

type tok =
  | Atom of string
  | Bracket of tok list  (** a [\[...\]] command substitution *)
  | Brace of string list (** a [{...}] word list *)

exception Error of { line : int; col : int; msg : string }

val tokenize : string -> tok list list
(** Split the source into commands; each command is its token list.
    @raise Error on unbalanced delimiters. *)

type located = {
  lc_line : int;  (** 1-based line of the command's first character *)
  lc_col : int;   (** 1-based column of the command's first character *)
  lc_toks : tok list;
}

val tokenize_located :
  on_error:(line:int -> col:int -> msg:string -> unit) -> string -> located list
(** Like {!tokenize} but each command carries its source position, and
    a malformed command reports through [on_error] instead of raising:
    input is resynchronised at the next command boundary (newline or
    [;]) and lexing continues, so one bad command never discards the
    rest of the file. *)

val tok_to_string : tok -> string
(** Round-trip a token back to SDC text (for diagnostics). *)
