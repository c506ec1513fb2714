(** Crash-safe, schema-versioned per-stage checkpoint store.

    [modemerge merge --checkpoint DIR] persists the merge pipeline's
    state after each completed stage so a killed run can [--resume]
    from the last completed stage with byte-identical output to an
    uninterrupted run. This module is the storage half (what a stage
    {e contains} is decided by {!Merge_flow}): a directory holding

    - [MANIFEST] — a line-oriented, schema-versioned text index:
      {v
      modemerge-checkpoint <schema_version>
      fingerprint <hex>
      stage <name> <file> <md5hex> <n_counters>
      counter <metric-name> <value>   (n_counters lines)
      v}
    - one [<stage>.bin] payload per completed stage ([Marshal] of the
      stage's state record).

    Crash safety: payloads and the manifest are written to a temp file
    and [Sys.rename]d into place, and the manifest records each
    payload's digest — a kill mid-write leaves either the previous
    consistent state or an orphan temp file, never a manifest pointing
    at a torn payload. A payload whose digest no longer matches is
    treated as absent (that stage and all later ones recompute).

    Each stage also records a snapshot of the {!Mm_util.Metrics}
    counters taken at its boundary; {!load_stage} returns it so resume
    can {!Mm_util.Metrics.restore_counters} and keep the audit
    report's coverage section byte-identical to an unfaulted run.

    The manifest carries an input {e fingerprint} (digest of sources,
    design and the options that shape the result). {!load_for_resume}
    refuses a checkpoint whose fingerprint differs — resuming against
    edited inputs would silently splice two different runs. *)

val schema_version : int
(** Bumped whenever a stage payload's type changes: {!load_stage}
    unmarshals at the caller's type, so this is the only guard against
    reading an old payload as the new type. *)

type t

val create : dir:string -> fingerprint:string -> t
(** Start a fresh checkpoint: create [dir] if missing, write an empty
    manifest for [fingerprint], and forget any stages a previous run
    left behind (their payload files are removed). *)

val load_for_resume : dir:string -> fingerprint:string -> (t, string) result
(** Open an existing checkpoint for [--resume]. [Error] when the
    manifest is missing/corrupt, its schema version or fingerprint
    does not match, or [dir] is unreadable. Stages whose payloads fail
    their digest check are dropped (along with every later stage). *)

val dir : t -> string

val completed_stages : t -> string list
(** In completion order. *)

val has_stage : t -> string -> bool

val save_stage : t -> stage:string -> counters:(string * int) list -> 'a -> unit
(** Persist one stage's state and counter snapshot, then atomically
    update the manifest. The payload is [Marshal]ed, so the value must
    be closure-free (every pipeline state record is plain data).
    @raise Sys_error on IO failure. *)

val load_stage : t -> stage:string -> ('a * (string * int) list) option
(** The stage's state and its counter snapshot, or [None] when absent
    or torn. The caller is responsible for matching ['a] to what
    {!save_stage} stored under this stage name (same process version —
    the schema version guards cross-version reads). *)
