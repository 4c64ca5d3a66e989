(** The `latte tune` search loop: cost-model-pruned, measurement-ranked
    schedule autotuning with a persisted per-(model, machine) cache.

    Candidates are enumerated from the structure the default compilation
    exposes ({!Pass_manager.report.tile_groups}): per-group tile targets
    from the anchor extent's divisor lattice, fusion groups toggled back
    off, and worker-domain counts 2..N. {!Cost_model.estimate_sections}
    prunes the candidates to a measured frontier; real median-of-k
    forward runs (after a deterministic seeded input fill) rank it.

    Every measured candidate is asserted {b bit-identical} to the
    default schedule over the entire buffer state before it may win — a
    schedule only moves work around, it never changes what is computed.
    Candidates whose outputs differ are rejected and reported.

    The winner persists to {!Tune_cache} (unless caching is off) under
    {!cache_key}, where {!Pipeline.compile_pair} picks it up
    automatically. A second [tune] of the same model resolves entirely
    from the cache. *)

type budget = Small | Medium | Large

val budget_of_string : string -> budget option
val budget_name : budget -> string

type trial = {
  t_schedule : Schedule.t;
  t_note : string;
      (** What kind of candidate: ["tile"], ["nofuse"], ["combined"] or
          ["domains"]. *)
  t_estimate : float;  (** Cost-model forward seconds (0 for domain trials). *)
  t_measured : float option;
      (** Median measured forward seconds; [None] when the candidate was
          pruned by the cost model or rejected by the bit-identity
          assertion. *)
}

type result = {
  winner : Schedule.t;
      (** The empty schedule when nothing beat the default. *)
  default_seconds : float;
  tuned_seconds : float;
  trials : trial list;  (** Measured trials first, then pruned ones. *)
  from_cache : bool;  (** [true]: resolved without any measurement. *)
  cache_key : string option;  (** [None] when caching was disabled. *)
  groups : (string * int * int) list;
      (** (group label, anchor extent, default tile rows) — the search
          lattice, for the CLI's winner-vs-default table. *)
}

val cache_key : Config.t -> Program.t -> string
(** [cache_key config prog] is the tuning-cache key for [prog]'s network
    compiled under [config]: a digest of {!Program.fingerprint} (the
    same for every compile of one net), {!Tune_cache.machine_id}, the
    config's precision and its {!Config.normalize}d pass list, so a schedule tuned under one pass
    set is never applied under another. {!tune} stores under it and
    {!Pipeline.compile_pair} looks up under it. *)

val tune :
  ?budget:budget ->
  ?seed:int ->
  ?max_domains:int ->
  ?use_cache:bool ->
  ?cache_dir:string ->
  ?force:bool ->
  ?machine:Machine.cpu ->
  ?measure:(Executor.t -> float) ->
  ?log:(string -> unit) ->
  config:Config.t ->
  build:(unit -> Net.t) ->
  unit ->
  result
(** Search for the best schedule for [build ()] compiled under [config]
    (whose own [schedule] field is ignored — it is what tuning
    replaces).

    [budget] scales the frontier size, tile targets per group and
    median-of-k iterations (default [Medium]). [seed] fixes parameter
    initialization and the input fill (default 1). [max_domains] caps
    the domain-count stage (default [Domain.recommended_domain_count]);
    the stage is skipped when it is 1. [use_cache]/[cache_dir] override
    the [LATTE_TUNE_CACHE]-derived location; [force] re-tunes and
    overwrites an existing entry. [machine] is the cost model used for
    pruning only — measurement happens on the host. [measure] replaces
    the wall-clock measurement ({!Executor.time_run}'s median of k
    forwards) with a caller-supplied one — the determinism tests inject a
    synthetic deterministic measure here. [log] receives the search
    trace one line at a time. *)
