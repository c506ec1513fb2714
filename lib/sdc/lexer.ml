type tok =
  | Atom of string
  | Bracket of tok list
  | Brace of string list

exception Error of { line : int; col : int; msg : string }

(* The lexer is a single pass with an explicit position; [line] tracks
   newline count and [bol] the offset of the current line start, so
   errors carry line:col. *)
type state = { src : string; mutable pos : int; mutable line : int; mutable bol : int }

let col st = st.pos - st.bol + 1
let error st line msg = raise (Error { line; col = col st; msg })

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  | _ -> ());
  st.pos <- st.pos + 1

let is_word_char c =
  not (c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '[' || c = ']'
     || c = '{' || c = '}' || c = ';' || c = '"' || c = '#')

let read_word st =
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some '\\' when st.pos + 1 < String.length st.src
                     && st.src.[st.pos + 1] <> '\n' ->
      (* escaped char inside a word *)
      advance st;
      advance st;
      go ()
    | Some c when is_word_char c && c <> '\\' ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  String.sub st.src start (st.pos - start)

let read_quoted st =
  let line0 = st.line in
  advance st;
  (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st line0 "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> error st line0 "unterminated string"
      | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ())
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let read_brace st =
  let line0 = st.line in
  advance st;
  (* opening brace *)
  let buf = Buffer.create 16 in
  let depth = ref 1 in
  let rec go () =
    match peek st with
    | None -> error st line0 "unterminated brace list"
    | Some '{' ->
      incr depth;
      Buffer.add_char buf '{';
      advance st;
      go ()
    | Some '}' ->
      decr depth;
      advance st;
      if !depth > 0 then begin
        Buffer.add_char buf '}';
        go ()
      end
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf
  |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter (fun w -> w <> "")

let skip_comment st =
  let rec go () =
    match peek st with
    | None | Some '\n' -> ()
    | Some _ ->
      advance st;
      go ()
  in
  go ()

(* Reads tokens until an end condition; [closing] is [true] inside
   brackets (terminates on ']'), [false] at top level (terminates on
   newline / ';' / EOF). *)
let rec read_tokens st ~closing =
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let rec go () =
    match peek st with
    | None ->
      if closing then error st st.line "unterminated [" else List.rev !toks
    | Some ']' ->
      if closing then begin
        advance st;
        List.rev !toks
      end
      else error st st.line "unbalanced ]"
    | Some ('\n' | ';') when not closing ->
      advance st;
      List.rev !toks
    | Some ('\n' | ';') ->
      advance st;
      go ()
    | Some (' ' | '\t' | '\r') ->
      advance st;
      go ()
    | Some '\\' when st.pos + 1 < String.length st.src
                     && st.src.[st.pos + 1] = '\n' ->
      (* line continuation *)
      advance st;
      advance st;
      go ()
    | Some '\\' when st.pos + 1 >= String.length st.src ->
      advance st;
      go ()
    | Some '#' ->
      skip_comment st;
      go ()
    | Some '[' ->
      advance st;
      push (Bracket (read_tokens st ~closing:true));
      go ()
    | Some '{' ->
      push (Brace (read_brace st));
      go ()
    | Some '"' ->
      push (Atom (read_quoted st));
      go ()
    | Some '}' -> error st st.line "unbalanced }"
    | Some _ ->
      push (Atom (read_word st));
      go ()
  in
  go ()

type located = { lc_line : int; lc_col : int; lc_toks : tok list }

(* Consume whitespace, command separators and comments so the next
   read starts exactly at a command's first character. *)
let skip_blank st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\r' | '\n' | ';') ->
      advance st;
      go ()
    | Some '#' ->
      skip_comment st;
      go ()
    | _ -> ()
  in
  go ()

(* Recovery resynchronisation: drop input up to and including the next
   command boundary (newline or ';'). Always makes progress. *)
let resync st =
  let rec go () =
    match peek st with
    | None -> ()
    | Some ('\n' | ';') -> advance st
    | Some _ ->
      advance st;
      go ()
  in
  go ()

let tokenize_located ~on_error src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let cmds = ref [] in
  let rec go () =
    skip_blank st;
    if st.pos < String.length st.src then begin
      let lc_line = st.line and lc_col = col st in
      (match read_tokens st ~closing:false with
      | [] -> ()
      | toks -> cmds := { lc_line; lc_col; lc_toks = toks } :: !cmds
      | exception Error { line; col; msg } ->
        on_error ~line ~col ~msg;
        resync st);
      go ()
    end
  in
  go ();
  List.rev !cmds

let tokenize src =
  List.map
    (fun c -> c.lc_toks)
    (tokenize_located
       ~on_error:(fun ~line ~col ~msg -> raise (Error { line; col; msg }))
       src)

let rec tok_to_string = function
  | Atom s -> s
  | Brace ws -> "{" ^ String.concat " " ws ^ "}"
  | Bracket ts -> "[" ^ String.concat " " (List.map tok_to_string ts) ^ "]"
