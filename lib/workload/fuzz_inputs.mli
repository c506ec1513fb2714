(** Deterministic fault injection for robustness testing.

    Mutates valid SDC (or other line-oriented) text into plausibly
    corrupted variants: deleted tokens, truncated files, garbage
    splices, duplicated commands, flipped delimiters. All randomness
    comes from an explicit {!Mm_util.Prng.t}, so a seed fully
    determines the corruption — the robustness suite replays the same
    faults on every run. *)

val corrupt_seeded : seed:int -> ?rounds:int -> string -> string
(** Apply 1 to [rounds] (default 3) random mutations in sequence, drawn
    from a fresh generator seeded with [seed] — the seed fully
    determines the result. A mutation leaves degenerate inputs (empty
    text, no command lines) unchanged rather than failing. *)
