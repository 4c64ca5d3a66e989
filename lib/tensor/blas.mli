(** Hand-written BLAS-like kernels on packed row-major Float32 buffers.

    This plays the role of Intel MKL in the paper: the compiler's
    pattern-matching phase rewrites synthesized dot-product loop nests
    into calls to {!gemm}, which is substantially faster than the
    equivalent interpreted loops thanks to register blocking and
    cache-aware loop ordering.

    Conventions: matrices are packed row-major. [gemm] computes
    [C := alpha * op(A) * op(B) + beta * C] where [op(A)] is [m x k]
    and [op(B)] is [k x n]; [transa] means A is stored [k x m].

    {b No kernel checks bounds.} Every element access is an inline
    {!Tensor.buffer_get}/{!Tensor.buffer_set}, so an index outside a
    buffer reads or writes past it. Callers keep each span in range:
    for a GEMM, [\[off_a, off_a + m·k)], [\[off_b, off_b + k·n)] and
    [\[off_c, off_c + m·n)] lie inside their buffers. On the compiled
    path that is an [Ir_bounds] proof or the guarded GEMM's span check;
    in [Ir_eval] it is the same span check, run on every call. *)

type buffer = Tensor.buffer

val gemm :
  ?alpha:float ->
  ?beta:float ->
  transa:bool ->
  transb:bool ->
  m:int ->
  n:int ->
  k:int ->
  a:buffer ->
  ?off_a:int ->
  b:buffer ->
  ?off_b:int ->
  c:buffer ->
  ?off_c:int ->
  unit ->
  unit
(** Blocked implementation. The [off_*] arguments give flat offsets into
    the buffers so sub-matrices of larger workspaces can be addressed
    without copying. *)

val gemm_naive :
  ?alpha:float ->
  ?beta:float ->
  transa:bool ->
  transb:bool ->
  m:int ->
  n:int ->
  k:int ->
  a:buffer ->
  ?off_a:int ->
  b:buffer ->
  ?off_b:int ->
  c:buffer ->
  ?off_c:int ->
  unit ->
  unit
(** Triple-loop reference used by the test suite to validate {!gemm}. *)

val gemv :
  transa:bool ->
  m:int ->
  n:int ->
  a:buffer ->
  x:buffer ->
  y:buffer ->
  unit
(** y := op(A) * x + y with A stored m x n row-major. *)

val axpy : alpha:float -> n:int -> x:buffer -> y:buffer -> unit

val dot : n:int -> x:buffer -> y:buffer -> float

val scal : alpha:float -> n:int -> x:buffer -> unit

val gemm_flops : m:int -> n:int -> k:int -> float
(** 2*m*n*k, the canonical GEMM flop count used by the cost model. *)
