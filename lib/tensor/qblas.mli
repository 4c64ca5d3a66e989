(** GEMM over packed stores — the quantized counterpart of {!Blas}.

    [gemm] computes [C := alpha * op(A) * op(B) + beta * C] with the
    same conventions as {!Blas.gemm}, but the operands are
    {!Tensor.store}s of any precision. Integer operands are decoded
    through their {!Precision.qparams}; specialized kernels cover the
    two mixes the int8 preset dispatches, int8 x int8 (integer
    accumulation) and weight-only int8, and a decoded fallback handles
    every other combination. All-f32 calls delegate to {!Blas.gemm} and
    are bit-identical to it.

    Like {!Blas}, no kernel checks bounds: f32 operands load through
    {!Tensor.buffer_get}, int8 operands through
    {!Tensor.buffer_get_i8}, and packed operands through
    {!Tensor.store_reader}, all unchecked.
    Callers keep each operand span inside its store, exactly as for
    {!Blas.gemm}. *)

val kernel_name : Tensor.store -> Tensor.store -> Tensor.store -> string
(** Which kernel a (A, B, C) kind combination dispatches to: ["gemm"]
    (all f32), ["gemm_i8i8"] (int8 A and B), ["gemm_f32i8"] (f32 A,
    int8 B) or ["gemm_mixed"] (anything else: int8 A against f32 B, or
    a packed C). *)

val gemm :
  ?alpha:float ->
  ?beta:float ->
  transa:bool ->
  transb:bool ->
  m:int ->
  n:int ->
  k:int ->
  a:Tensor.store ->
  ?off_a:int ->
  b:Tensor.store ->
  ?off_b:int ->
  c:Tensor.store ->
  ?off_c:int ->
  unit ->
  unit
