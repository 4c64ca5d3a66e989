(** The persisted per-(model, machine) tuning cache: a versioned,
    CRC-validated store of small [(name, value)] string payloads keyed
    by a hex digest.

    This module is deliberately schedule-agnostic — the compiler's
    [Schedule.to_payload]/[of_payload] translate to and from the stored
    form. [Tuner.tune] writes it, and [Pipeline.compile_pair] is its one
    reader outside the tuner.

    One entry per file ([<key>.tune] under the cache directory), written
    atomically (temp file + rename). {!lookup} validates magic, schema
    version, key and CRC-32 and answers [None] for anything invalid —
    including entries written by a future schema version, which are
    rejected rather than misparsed. A damaged cache costs a re-tune,
    never an error. *)

val schema_version : int

val machine_id : unit -> string
(** A coarse host description ([os/word-size/core-count]) folded into
    every cache key, so a cache directory copied to a meaningfully
    different machine misses instead of mis-hitting. *)

val key :
  fingerprint:string -> machine:string -> precision:string -> passes:string ->
  string
(** A digest of its four parts. [Tuner.cache_key] is the one recipe that
    fills them in ({!Program.fingerprint}, {!machine_id}, the execution
    precision and the normalized pass list). *)

val default_dir : unit -> string
(** [<temp-dir>/latte-tune-cache], used when [LATTE_TUNE_CACHE] is
    unset. *)

val dir : unit -> string option
(** The active cache directory per [LATTE_TUNE_CACHE]
    ({!Latte_env.tune_cache}); [None] when the cache is disabled. *)

val enabled : unit -> bool

val store : dir:string -> key:string -> (string * string) list -> unit
(** Atomically persist a payload under [key]. Names must be non-empty
    and free of [=] and newlines; values free of newlines — raises
    [Invalid_argument] otherwise. Creates [dir] if missing. *)

val lookup : dir:string -> key:string -> (string * string) list option
(** The validated payload stored under [key], or [None] when the entry
    is missing, truncated, corrupted, keyed differently, or written by
    another schema version. *)
