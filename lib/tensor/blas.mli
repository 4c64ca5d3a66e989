(** Hand-written BLAS-like kernels on packed row-major Float32 buffers.

    This plays the role of Intel MKL in the paper: the compiler's
    pattern-matching phase rewrites synthesized dot-product loop nests
    into calls to {!gemm}, which is substantially faster than the
    equivalent interpreted loops thanks to register blocking.

    Conventions: matrices are packed row-major. [gemm] computes
    [C := alpha * op(A) * op(B) + beta * C] where [op(A)] is [m x k]
    and [op(B)] is [k x n]; [transa] means A is stored [k x m], and
    [transb] that B is stored [n x k].

    {b One summation rule.} [beta] is applied first, as in BLAS:
    [beta = 0] stores [0.0] (so NaN in C is cleared), [beta = 1] leaves
    C alone, and any other [beta] rounds [beta * C] to f32. Then each
    element becomes [C[i,j] + alpha * acc], rounded to f32 once, where
    [acc] is a double summed from [+0.0] over ascending [p] of
    [op(A)[i,p] * op(B)[p,j]]:
    - when [transb] is true (every forward conv and FC GEMM) every term
      is summed, so a zero in op(A) facing an infinity or NaN in op(B)
      gives NaN, as a dot-product loop does;
    - when [transb] is false (every backward GEMM, whose op(A) is a
      gradient that ReLU and max-pool leave mostly zero) only the
      nonzero entries of op(A) are summed, so such a zero contributes
      nothing and C stays finite. A NaN in op(A) is nonzero and is
      summed.
    Skipping a zero changes no finite result: products of f32 values are
    exact in a double, so a skipped term is a signed zero, and [acc],
    which starts at [+0.0], absorbs it.

    {!gemm} and {!gemm_naive} both follow the rule, so they agree bit
    for bit, NaN payloads and signed zeros included. That is why the
    compiled path ({!gemm}) equals [Ir_eval] ({!gemm_naive}) bit for
    bit.

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
(** The blocked kernels, chosen by [transb]. When it is true, a 4x2
    register block of C: eight double accumulators, each load of op(A)
    feeding two products and each load of B four. When it is false, a
    gather: each row of op(A) is reduced once to its nonzero (B row,
    value) pairs, which are then summed against four contiguous columns
    of B at a time. Its work arrays are one pair per domain, grown
    to the largest [k] seen. The [off_*] arguments give flat offsets
    into the buffers so sub-matrices of larger workspaces can be
    addressed without copying. *)

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
(** The triple-loop oracle: one dot product per element, under the same
    rule as {!gemm}. [Ir_eval] runs every f32 GEMM statement through it
    and [Mocha_like] every FC GEMM, and the tests pin {!gemm} to it. *)

val gemm_flops : m:int -> n:int -> k:int -> float
(** 2*m*n*k, the canonical GEMM flop count used by the cost model. *)
