(** Deterministic fault injection for robustness testing.

    Mutates valid SDC (or other line-oriented) text into plausibly
    corrupted variants: deleted tokens, truncated files, garbage
    splices, duplicated commands, flipped delimiters. All randomness
    comes from an explicit {!Mm_util.Prng.t}, so a seed fully
    determines the corruption — the robustness suite replays the same
    faults on every run. *)

type mutation =
  | Delete_token     (** drop one word from a command line *)
  | Delete_line      (** drop a whole command *)
  | Duplicate_line   (** repeat a command verbatim *)
  | Truncate         (** cut the text at a random offset *)
  | Garbage_splice   (** insert a junk fragment at a random offset *)
  | Flip_char        (** overwrite one char with a hostile delimiter *)
  | Unbalance        (** insert a lone bracket/brace/quote *)

val all_mutations : mutation array

val apply : Mm_util.Prng.t -> mutation -> string -> string
(** Apply one mutation. Degenerate inputs (empty text, no command
    lines) are returned unchanged rather than failing. *)

val corrupt : ?rounds:int -> Mm_util.Prng.t -> string -> string
(** Apply 1 to [rounds] (default 3) random mutations in sequence. *)

val corrupt_seeded : seed:int -> ?rounds:int -> string -> string
(** [corrupt] with a fresh generator — the seed fully determines the
    result. *)
