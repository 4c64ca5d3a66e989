(** The compiler driver: analysis → synthesis → optimization → code
    assembly (§5).

    [compile] runs the registered pass pipeline (see {!Pass_manager})
    under a {!Config.t} and returns an executable {!Program.t}:

    + {!Synthesis} builds per-ensemble loop nests, data-copy tasks and
      the buffer plan (shared-variable analysis included);
    + {!Pattern_match} rewrites dot-product nests into GEMM calls and
      hoists per-item GEMV/rank-1 calls into whole-batch GEMMs;
    + {!Fusion} (with {!Tiling}) groups fusable units and tiles the y
      dimension; the [parallelize] pass annotates batch/tile loops.

    The resulting sections are what {!Executor.prepare} code-generates.
    For per-pass control, instrumentation, IR dumps and verification
    use {!Pass_manager.run} directly. *)

val compile : ?seed:int -> Config.t -> Net.t -> Program.t

val compile_pair :
  ?seed:int ->
  ?opts:Executor.Run_opts.t ->
  Config.t ->
  (unit -> Net.t) ->
  Executor.t * Executor.t
(** [compile_pair config build] is [(fast, reference)]: the network
    description compiled twice with the same seed, once under [config]
    and once under {!Config.unoptimized}, both prepared under [opts]
    (default {!Executor.Run_opts.default}) at the domain count resolved
    below. Both executors hold identical parameter
    values (initialization draws happen in the required,
    config-independent synthesis pass), so the reference is a
    numerically trusted stand-in for the optimized one — the degradation
    target of the serving runtime. [build] must return a fresh,
    structurally identical net on each call.

    This is the only reader of the tuning cache ({!Tune_cache}) outside
    [Tuner.tune]. When [config.schedule] is [None] and the cache holds
    an entry under [Tuner.cache_key] for this network, the fast program
    is compiled under the cached schedule (report rows show source
    ["cache"]). An explicit [config.schedule] always wins;
    [LATTE_TUNE_CACHE=off] disables the lookup.

    Domains resolve by the same precedence: the schedule's [domains]
    (explicit, else cached) when it names one, even over [opts]; else
    [opts.domains]; else [config.num_domains] when [opts] is absent. *)

val dump : Program.t -> string
(** Human-readable listing of every section's IR, followed by the
    buffer plan (name, shape, bytes, alias target) and the parameter
    table (value/grad buffers, gradient sizes, learning-rate
    multipliers) — the [--dump-ir] output of the CLI. *)
