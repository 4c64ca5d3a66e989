(** Static analyses over the loop IR.

    These serve three clients: the pattern matcher (affine stride
    queries), the code generator (unit-stride detection for kernel
    specialization), and the machine cost model (flop/byte accounting
    and parallel-iteration counts). *)

val is_free_of : string -> Ir.iexpr -> bool
(** [is_free_of v e] holds when [e] does not mention loop variable [v]. *)

val fexpr_free_of : string -> Ir.fexpr -> bool

val ivars : Set.Make(String).t -> Ir.iexpr -> Set.Make(String).t
(** [ivars acc e] adds the loop variables [e] mentions to [acc]. *)

val stride_of : var:string -> Ir.iexpr -> int option
(** The constant coefficient of [var] when the expression is affine in
    it; [None] when non-affine (e.g. [var] under division). *)

val const_value : Ir.iexpr -> int option
(** The value of the expression when it simplifies to a constant. *)

val flat_index : shape:int array -> Ir.iexpr list -> Ir.iexpr
(** Row-major flattening of a multi-index against a buffer shape,
    simplified. *)

val eval_iexpr : (string -> int) -> Ir.iexpr -> int
(** Evaluate a closed index expression; the environment function raises
    for unbound variables. *)

type cost = {
  flops : float;  (** Floating-point operations executed. *)
  bytes : float;  (** Bytes moved to/from buffers (4 per access). *)
  parallel_iters : float;
      (** Iterations available to the parallel scheduler: the product of
          trip counts of [parallel]-annotated loops. 1.0 when serial. *)
}

val zero_cost : cost

val cost_of_stmts :
  ?bindings:(string * int) list ->
  ?bytes_of:(string -> float) ->
  ?width_of:(string -> float) ->
  Ir.stmt list ->
  cost
(** Static cost of one execution of the statements. Loop trip counts are
    evaluated with outer loop variables bound to their lower bounds
    (synthesized bounds are constants, so this is exact for the code the
    compiler produces). [bytes_of] gives the byte size of a named buffer
    and is used to charge [Extern] calls for streaming their declared
    reads/writes once; without it extern calls are treated as free.
    [width_of] gives the element width in bytes of a named buffer
    (default 4.0 everywhere): every load/store of a buffer is charged
    its storage width, so int8 buffers move a quarter of the bytes of
    f32 ones. *)
