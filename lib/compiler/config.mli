(** Compiler configuration, the knobs behind the Figure 13 ablation.
    [default] runs every optional pass; [unoptimized] is the plain
    synthesized code. *)

type t = {
  passes : string list;
      (** The optional passes that run, by {!Pass_manager} registry name
          (see [latte passes]). Required passes always run;
          [Pass_manager.run] rejects unknown names. *)
  tile_size : int;
      (** Target rows of the *last* layer per tile — the uniform
          fallback for every group a [schedule] does not name (and for
          all groups when [schedule = None]). Per-group targets come
          from {!Schedule.t}. *)
  num_domains : int;
      (** Worker domains for parallel-annotated loops (§5.4.3, the CLI's
          [--domains]): the count [Pipeline.compile_pair] prepares at
          when neither a schedule nor the caller's run options give
          one. [default] reads [LATTE_DOMAINS] (missing or malformed
          means 1); [unoptimized] is always 1. Outputs are bit-identical
          at any count. *)
  precision : Precision.preset;
      (** Execution precision (the CLI's [--precision]): [`F32] is the
          classic pipeline; [`I8] post-training-quantizes weights and
          activations to int8 after calibration. [default] reads
          [LATTE_PRECISION] (missing or malformed means [`F32]);
          [unoptimized] is always [`F32]. *)
  schedule : Schedule.t option;
      (** Per-section schedule override ([latte tune]'s output). When
          set, the tile and fuse passes consult it first and the scalar
          knobs above become fallbacks: [tile_size] applies only to
          groups the schedule does not name. Its [domains] entry is read
          by [Pipeline.compile_pair] alone. [None] (both presets) means
          the static heuristics decide everything. *)
}

val default : t
(** Every optional pass, in registry order. *)

val unoptimized : t
(** Only [simplify]. *)

(** What the environment contributes to {!default}: the one seam through
    which [LATTE_DOMAINS], [LATTE_PRECISION] and [LATTE_TUNE_CACHE] are
    read (parsers shared with [Executor.Run_opts] via {!Latte_env}).
    Malformed values always mean the default, never an error. *)
type env = {
  env_domains : int;
  env_precision : Precision.preset;
  env_tune_cache : Latte_env.tune_cache;
}

val of_env : unit -> env

val with_flags :
  ?passes:string list ->
  ?tile_size:int ->
  ?num_domains:int ->
  ?precision:Precision.preset ->
  ?schedule:Schedule.t ->
  t ->
  t

val enabled : string -> t -> bool
(** [enabled name t]: [name] is in [t.passes]. *)

val without : string list -> t -> t
(** [t] with the named passes removed from [passes]. *)

val normalize : t -> t * string list
(** Resolve silently-coupled settings into an explicit configuration,
    with a human-readable warning per adjustment: [fuse] without [tile]
    is dropped (fusion schedules tiles), [batch-gemm] without [gemm] is
    dropped (there are no GEMV calls to stack), and [num_domains < 1] is
    clamped to 1. A [schedule] is sanitized ({!Schedule.sanitize}: tile
    targets < 1 dropped with a warning) and warned about when its tile
    entries are dead without the tile pass (tile targets that divide no
    section are diagnosed later by the tile pass, which knows the
    extents). *)

val describe : t -> string
(** The pass list joined by ["+"] (["none"] when empty); appends the
    precision unless f32, and ["+sched@<digest>"] when a non-empty
    [schedule] is set, so every distinct schedule yields a distinct
    compile-cache key. *)
