(** Reference interpreter for the loop IR.

    Deliberately simple and bounds-checked: the test suite uses it as
    the semantic oracle against which {!Ir_compile}'s optimized code is
    validated, so it favors obvious correctness over speed. *)

val apply_unop : Ir.funop -> float -> float
val apply_binop : Ir.fbinop -> float -> float -> float

val apply_cmp : Ir.cmp -> 'a -> 'a -> bool
(** Polymorphic comparison semantics shared with {!Ir_compile}. *)

val run :
  lookup:(string -> Tensor.t) ->
  ?store_of:(string -> Tensor.store) ->
  ?bindings:(string * int) list ->
  ?trace:(string -> int -> unit) ->
  ?trace_store:(string -> int -> float -> unit) ->
  Ir.stmt list ->
  unit
(** Execute the statements against the given buffer environment.
    Raises [Failure] on unbound variables/buffers and
    [Invalid_argument] on out-of-bounds accesses. A GEMM's operand
    spans pass {!Ir_bounds.check_gemm_spans} before the kernel runs,
    since the kernels never check bounds: an out-of-range call raises
    without writing. [trace] is called
    with (buffer, flattened index) for every element access {e before}
    the bounds check — the dynamic-oracle hook the fuzz tests use to
    cross-check {!Ir_bounds} verdicts against observed indices.

    [store_of] resolves buffers precision-aware (defaults to wrapping
    [lookup] as f32); packed buffers decode on load and encode on
    store, and GEMMs over them use the same {!Qblas} dispatch as the
    compiled path. [trace_store] is called with (buffer, index, value)
    for every Store/Accum result before encoding — the dynamic-range
    oracle behind quantization calibration and
    [latte analyze --ranges]. *)
