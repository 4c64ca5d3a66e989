(** The single environment-parsing seam for the LATTE_* runtime knobs.

    The compiler-level spelling is {!Config.of_env}, which delegates
    here (the runtime library cannot see the compiler's [Config], so
    the shared implementation lives on the runtime side). Malformed or
    missing values always degrade to the documented default — never to
    an error. *)

type tune_cache =
  | Default  (** Unset or empty: the per-machine cache under the system
                 temp directory. *)
  | Off  (** ["off"] (case-insensitive): tuning-cache consults and
             writes are disabled process-wide. *)
  | Path of string  (** Any other value: an explicit cache directory. *)

val parse_domains : string option -> int
(** [LATTE_DOMAINS]: worker domains for parallel loops. Missing,
    malformed, or [< 1] means 1. *)

val parse_precision : string option -> Precision.preset
(** [LATTE_PRECISION]: execution precision preset ([f32]/[int8]).
    Missing or malformed means [`F32]. *)

val parse_tune_cache : string option -> tune_cache
(** [LATTE_TUNE_CACHE]: tuning-cache location override or ["off"]. *)

val domains : unit -> int
val precision : unit -> Precision.preset
val tune_cache : unit -> tune_cache
