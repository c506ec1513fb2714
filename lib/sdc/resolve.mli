(** Resolution of parsed SDC against a design, producing a {!Mode.t}.

    Commands are processed in file order (clocks must precede
    [get_clocks] references, as in real tools). Unresolvable objects
    yield [Warning] diagnostics rather than failures so that partially
    applicable constraint sets can still be analysed. *)

type result = { mode : Mode.t; diags : Mm_util.Diag.t list }

val warnings : result -> string list
(** Diagnostic messages only (legacy warning-list shape). *)

val mode :
  ?file:string ->
  ?diags:Mm_util.Diag.t list ->
  Mm_netlist.Design.t ->
  name:string ->
  Ast.command list ->
  result
(** [file] locates the diagnostics (the commands carry no lines);
    [diags] are prepended to the result. The entry points below, which
    parse, locate each diagnostic at its command's line and column. *)

val mode_of_string :
  ?file:string -> Mm_netlist.Design.t -> name:string -> string -> result
(** Parse then resolve. @raise Parser.Error on syntax. *)

val mode_of_string_robust :
  ?file:string -> Mm_netlist.Design.t -> name:string -> string -> result
(** Error-recovering parse + resolve: never raises. Syntax errors
    become located [Error] diagnostics (the surviving commands still
    resolve); a resolution crash becomes a [Fatal] diagnostic on an
    empty mode. *)

val mode_exn : Mm_netlist.Design.t -> name:string -> Ast.command list -> Mode.t
(** Like {!mode} but raises [Failure] on any diagnostic — used by tests
    and the paper walkthrough where constraints must resolve fully. *)
