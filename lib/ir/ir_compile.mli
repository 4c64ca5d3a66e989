(** Code generation: loop IR → directly executable OCaml closures.

    This stands in for the paper's ParallelAccelerator.jl → ICC pipeline.
    Loops compile to closures over a register file of loop variables;
    every integer expression (index, loop bound, GEMM offset) compiles
    from its {!Ir_linear} normal form, one closure summing
    [k + Σ c·register], with only the non-affine atoms compiled node by
    node. Innermost loops whose accesses are affine in the loop variable
    are recognized and emitted as specialized tight kernels (strided
    copy, ReLU, sum- and max-accumulate, multiply-add),
    which is the moral equivalent of the vectorization pragmas Latte
    attaches for the C++ compiler; every other strided loop runs a
    generic loop that performs {!Ir_eval}'s float operations in
    {!Ir_eval}'s order. int8 innermost loops run in the same strided
    compiler: an int8 load decodes inline, and four kernels write int8
    codes inline (a gather from f32 data, a code copy between equal
    codes, a constant fill and a max-accumulate); any other int8
    destination is written through the store's writer. A gather from
    f32 data encodes each source element once per run, not once per
    element it writes: it copies codes from a shadow of its source,
    which the compiled section's entry encodes. Only unproven or
    non-strided loops take the per-node closure path.

    Loops compute {!Ir_eval}'s results bit for bit, which the test suite
    checks on random nests; f32 GEMMs call the blocked {!Blas.gemm}
    where {!Ir_eval} calls the naive {!Blas.gemm_naive}, and both follow
    one summation rule, so they agree bit for bit too. *)

type compiled

type safety =
  | Guard_unproven
      (** Accesses {!Ir_bounds} proves in-bounds compile to bare loads
          and stores ({!Tensor.buffer_get}/{!Tensor.buffer_set}), and
          proven GEMMs call the kernel directly; the rest
          compile to a runtime check raising [Invalid_argument] naming
          the buffer, the attempted index and the extent. Specialized
          innermost-loop kernels require a whole-nest proof. *)
  | Checked  (** Every access is guarded and no specialized kernels are
                 emitted; the overhead baseline in [bench/micro.ml]. *)

type par_runner = { workers : int; run : (int -> unit) -> unit }
(** How [parallel]-annotated loops are dispatched: [run f] must execute
    [f w] for every worker index [w] in [0, workers)] and return once
    all have finished — {!Domain_pool.runner} provides this. The type
    lives here (rather than in the runtime layer) because the runtime
    depends on the IR layer, not the reverse. *)

type token
(** Cooperative cancellation cell shared between a controller (the
    serving layer) and compiled code. Compiled sections poll it at entry
    ({!run}) and at every iteration of outermost loops — including each
    worker's stride loop inside a parallel dispatch — so a cancel takes
    effect within one outer-loop iteration, at the cost of one load and
    compare per outer iteration (inner loops run unchecked). An
    outermost loop that is itself an innermost loop compiled by the
    strided compiler, at any precision, is checked only at entry. *)

exception Cancelled of string
(** Raised out of compiled code (and by {!check_token}) once the token
    has been cancelled; carries the reason given to {!cancel}. Partial
    writes stay in the buffers — discarding them is the caller's job
    (see [Executor.scrub]). *)

val token : unit -> token
(** A fresh, un-cancelled token. *)

val cancel : token -> reason:string -> unit
(** Request cancellation. The first call wins; later calls (e.g. a
    deadline racing a watchdog) keep the original reason. *)

val cancelled : token -> bool

val cancel_reason : token -> string option
(** [Some reason] once cancelled. *)

val reset_token : token -> unit
(** Re-arm the token for the next run. *)

val check_token : token -> unit
(** Raise {!Cancelled} if the token is cancelled, else return. *)

type par_entry = {
  par_var : string;  (** Loop variable of the parallel loop. *)
  par_workers : int;  (** Chunks dispatched; 1 when the loop fell back. *)
  par_replayed : string list;
      (** Buffers whose conflicting writes (weight-gradient
          accumulations, whole-buffer fills) are replayed sequentially
          in iteration order after the barrier. *)
  par_fallback : string option;
      (** Why the loop stayed sequential, when it did (extern in the
          body, a dependence the splitter cannot prove safe, ...). *)
}

val compile :
  lookup:(string -> Tensor.t) ->
  ?store_of:(string -> Tensor.store) ->
  ?free_vars:string list ->
  ?safety:safety ->
  ?runner:par_runner ->
  ?token:token ->
  Ir.stmt list ->
  compiled
(** Buffers are resolved eagerly: every buffer named in the program must
    already exist in [lookup], and the compiled code reads/writes those
    exact tensors. [free_vars] declares variables bound at run time —
    their values are unknown to the bounds analyzer, so accesses indexed
    by them are guarded under the default [safety] of
    [Guard_unproven].

    [store_of] resolves buffers precision-aware (it defaults to wrapping
    [lookup] as f32). A packed (int8) operand decodes on load
    through the store's reader and encodes on store through its writer.
    Proven strided innermost loops over packed buffers run in the same
    strided compiler as f32 loops, which keeps its specialized kernels
    for raw-f32 operands; unproven or non-strided loops take the
    closure path. GEMMs over packed buffers dispatch to the {!Qblas}
    kernels. [lookup] is still used to hand Externs their f32 view, so
    extern-touched buffers must stay f32.

    With [runner] (and [runner.workers > 1]), outermost
    [parallel]-annotated loops execute chunked across the runner's
    workers with a static interleaved schedule (§5.4.3). Writes that
    cannot be proven per-iteration-disjoint are pruned from the parallel
    body and replayed sequentially after the barrier, so results are
    bit-identical to sequential execution at any worker count; loops the
    splitter cannot handle (externs, unprovable dependences) fall back
    to sequential execution, recorded in {!schedule}. *)

val run : compiled -> ?bindings:(string * int) list -> unit -> unit
(** Execute. [bindings] gives values for the [free_vars]. When the code
    was compiled with a [token], entry checks it (raising {!Cancelled}
    immediately if already cancelled) and outermost loops poll it per
    iteration. *)

val kernel_stats : compiled -> (string * int) list
(** Code-generation counters. Each innermost loop the strided compiler
    emits counts under its kernel kind: a specialized f32 kernel
    (["copy_strided"], ["relu"], ["acc_add"], ["acc_max"], ["fma"]),
    ["generic"] for an f32 destination no kernel matched, an int8
    kernel (["i8_encode"], ["i8_copy"], ["i8_fill"], ["i8_max"]), or
    ["decoded"] for an int8 destination no kernel matched (written
    through the store's writer). ["i8_encode"] is a copy from f32
    storage that no statement of the compiled section writes, under
    any alias. It copies int8 codes from a shadow, one per (source
    storage, scale), allocated at compile time. {!run} encodes every
    shadow from its whole source before the first statement, so the
    codes are fresh on every run. A copy from storage the section
    writes counts as ["decoded"]. Loops on the closure path are not
    counted. The other counters are accesses (["guarded"]) and GEMMs
    (["guarded_gemm"]) given a runtime check, packed GEMMs by {!Qblas}
    kernel name, and parallel-loop decisions (["par_loop"],
    ["par_replay"], ["par_fallback"]). Used by tests to pin down that
    the recognizer fired. *)

val schedule : compiled -> par_entry list
(** The parallel-loop scheduling decisions made during compilation, in
    program order. Empty when compiled without a runner. *)
