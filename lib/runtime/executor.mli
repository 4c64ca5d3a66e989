(** Executes compiled programs on the host, with per-section timing.

    Sections are code-generated once ({!Ir_compile}) at preparation time
    and then run repeatedly — the paper's [init] step that "compiles the
    network to an executable and allocates required memory buffers".
    Parallel-annotated loops execute on a shared {!Domain_pool} when
    [Run_opts.domains > 1], with outputs bit-identical to sequential
    execution. *)

type t

(** The unified execution-knob record, accepted uniformly by
    {!prepare}, [Pipeline.compile_pair] and [Registry.create]. *)
module Run_opts : sig
  type t = {
    safety : Ir_compile.safety;
        (** Bounds-check policy of the compiled sections. *)
    domains : int;
        (** Worker domains for parallel loops; clamped to [>= 1].
            [1] is pure sequential execution. {!prepare} runs at exactly
            this count; only [Pipeline.compile_pair] may replace it with
            a schedule's count. *)
    token : Ir_compile.token option;
        (** Cooperative cancellation cell compiled into every section:
            section entry and outermost loop iterations poll it, so a
            {!Ir_compile.cancel} unwinds the run as
            [Ir_compile.Cancelled] within one outer iteration. [None]
            (the default) compiles without any checks. *)
  }

  val default : t
  (** [safety = Guard_unproven], [domains] from the [LATTE_DOMAINS]
      environment variable (malformed or missing means 1, via
      {!Latte_env.domains}), [token = None]. *)

  val with_domains : int -> t -> t
  val with_safety : Ir_compile.safety -> t -> t
  val with_token : Ir_compile.token -> t -> t
end

val prepare : ?opts:Run_opts.t -> Program.t -> t
(** Code-generate every section under [opts] (default
    {!Run_opts.default}). *)

val program : t -> Program.t

val run_opts : t -> Run_opts.t
(** The options this executor was prepared with, with [domains]
    clamped. *)

val domains : t -> int

val token : t -> Ir_compile.token option
(** The cancellation token compiled into this executor, if any. *)

val pool : t -> Domain_pool.t option
(** The shared domain pool parallel loops dispatch on ([None] when
    prepared with [domains = 1]). *)

val respawns : t -> int
(** Worker-domain respawns on the executor's pool (0 without a pool). *)

val forward : t -> unit
val backward : t -> unit
(** Self-healing: when a worker domain dies mid-run
    ([Domain_pool.Worker_died]), the pool has already respawned it; the
    direction is transparently re-run from its first section, which is
    bit-identical to a clean run. *)

val forward_sections : ?on_section:(int -> string -> unit) -> t -> unit
(** Forward, one section at a time, for the serving layer: each
    section's entry checks the cancellation token (raising
    [Ir_compile.Cancelled]), [on_section index label] runs after each
    completed section (this is where the serving clock advances and
    cancel decisions happen), and the token is checked once more after
    the last section. Does NOT self-heal on [Domain_pool.Worker_died] —
    the caller owns the retry so it can account time and metrics. *)

val scrub : t -> unit
(** Discard partial work after a cancellation: zero every non-parameter
    physical buffer (activations, inputs, outputs, gradients).
    Parameter values are preserved. *)

val forward_timed : t -> (string * float) list
(** Runs forward once, returning (section label, seconds) pairs. *)

val backward_timed : t -> (string * float) list

val percentile : float -> float array -> float
(** [percentile q samples], [q] in [[0, 1]]: the nearest-rank
    percentile, the sample at index [floor (q * n)] of the [n] sorted
    samples (clamped to the largest), so [percentile 0.5] is the median
    {!time_run} reports. [samples] must be nonempty; it is not
    modified. *)

val time_run : ?warmup:int -> ?iters:int -> (unit -> unit) -> float
(** Median-of-[iters] (default 3) wall-clock seconds of [f ()], after
    [warmup] (default 1) untimed calls. The one timer behind the tuner's
    default measure, [latte bench] and the benchmark harness, for this
    executor and the [Caffe_like] and [Mocha_like] baselines alike. *)

val lookup : t -> string -> Tensor.t
(** Access a buffer by name (for data layers, tests, solvers). Raises
    [Invalid_argument] naming the missing buffer and listing the
    available buffer names when [name] is unknown, or [Failure] when
    the buffer is packed at another precision (use {!read_f32}). *)

val lookup_opt : t -> string -> Tensor.t option
(** [lookup] without the exception: [None] for an unknown buffer or one
    packed at a non-f32 precision. *)

val read_f32 : t -> string -> Tensor.t
(** Decoded copy of any buffer at any storage precision (the f32
    contents themselves for f32 buffers). *)

val kernel_stats : t -> (string * int) list
(** Aggregated code-generation kernel statistics over all sections. *)

val schedule : t -> (string * Ir_compile.par_entry) list
(** Parallel-loop scheduling decisions per section
    (["forward/<label>"] / ["backward/<label>"]), in program order.
    Empty when prepared with [domains = 1]. *)
