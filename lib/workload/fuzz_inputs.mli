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

(** {2 Chaos mode: execution-fault scenarios}

    Where the mutations above corrupt {e inputs}, a chaos scenario
    injects an {e execution} fault — a task delay or a raised
    exception — at a named {!Mm_util.Chaos} site.
    Scenarios are plain data; {!chaos_spec} renders them to the
    [SITE@OCC=FAULT] spec language of {!Mm_util.Chaos.configure} /
    the [MM_CHAOS] environment variable. *)

type chaos_fault =
  | Delay_ms of int  (** sleep at the site *)
  | Raise            (** raise {!Mm_util.Chaos.Injected} at the site *)

type chaos_scenario = {
  cs_name : string;            (** matrix-cell label *)
  cs_site : string;            (** compiled-in chaos site *)
  cs_occurrence : int option;  (** 1-based occurrence; [None] = every *)
  cs_fault : chaos_fault;
}

val chaos_fault_to_string : chaos_fault -> string

val chaos_spec : chaos_scenario list -> string
(** Render scenarios as one comma-separated fault plan. *)

val chaos_scenarios : chaos_scenario list
(** The standard scenario set: delay/raise faults at task, retry and
    IO sites, each recoverable in-process by the retry rung. *)

val chaos_matrix : ?jobs:int list -> unit -> (int * chaos_scenario) list
(** The jobs x scenario matrix (default jobs = [[1; 4]]). *)
