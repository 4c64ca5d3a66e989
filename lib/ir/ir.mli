(** The Latte loop-nest intermediate representation.

    The compiler synthesizes neuron computations into this IR, then all
    optimization phases (GEMM pattern matching, tiling, cross-layer
    fusion, parallelization) are transformations over it. It mirrors the
    paper's "superset of the Julia AST": ordinary loops and stores plus
    domain-specific nodes — tiled loops carrying dependence-distance
    metadata, parallel-for annotations, fusion-preventing barriers, and
    library-call nodes ({!constructor:stmt.Gemm}) produced by pattern
    matching.

    Index expressions ([iexpr]) and value expressions ([fexpr]) are
    separate sorts; indices synthesized by the compiler are affine in
    the loop variables, which the analyses in {!Ir_analysis} rely on. *)

type iexpr =
  | Iconst of int
  | Ivar of string
  | Iadd of iexpr * iexpr
  | Isub of iexpr * iexpr
  | Imul of iexpr * iexpr
  | Idiv of iexpr * iexpr  (** Floor division; operands must be non-negative. *)
  | Imod of iexpr * iexpr
  | Imin of iexpr * iexpr
  | Imax of iexpr * iexpr

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type funop =
  | Neg
  | Exp
  | Log
  | Sqrt
  | Tanh
  | Sigmoid
  | Abs

type fbinop = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax

type fexpr =
  | Fconst of float
  | Load of string * iexpr list
      (** [Load (buf, idx)] reads a multi-dimensional element; the index
          is flattened against the buffer's shape at compile time. *)
  | Float_of_int of iexpr
  | Funop of funop * fexpr
  | Fbinop of fbinop * fexpr * fexpr
  | Select of cond * fexpr * fexpr

and cond =
  | Icmp of cmp * iexpr * iexpr
  | Fcmp of cmp * fexpr * fexpr
  | Cand of cond * cond
  | Cor of cond * cond
  | Cnot of cond

type accum_op = Acc_sum | Acc_max

type tile_meta = {
  tile_size : int;  (** Iterations of the original loop per tile. *)
  dep_distance : int;
      (** Input dependence distance along the tiled dimension, derived
          from the connection structure (pooling window ⇒ 2, etc.).
          Fusion scales producer tile sizes by this factor (§5.4.2). *)
}

type stmt =
  | Store of { buf : string; idx : iexpr list; value : fexpr }
  | Accum of { op : accum_op; buf : string; idx : iexpr list; value : fexpr }
  | For of loop
  | If of cond * stmt list * stmt list
  | Memset of { buf : string; value : float }
  | Gemm of gemm
  | Fusion_barrier of string
      (** Prevents cross-layer fusion from crossing this point
          (NormalizationEnsembles and other unfuseable blocks). *)
  | Extern of extern_call

and loop = {
  var : string;
  lo : iexpr;
  hi : iexpr;  (** Half-open bound: iterates [lo, hi). *)
  body : stmt list;
  parallel : bool;  (** Set by the parallelization phase. *)
  tile : tile_meta option;  (** Set on tile loops by the tiling phase. *)
  vectorize : bool;  (** Innermost unit-stride hint for codegen. *)
}

and gemm = {
  transa : bool;
  transb : bool;
  m : iexpr;
  n : iexpr;
  k : iexpr;
  a : string;
  off_a : iexpr;
  b : string;
  off_b : iexpr;
  c : string;
  off_c : iexpr;
  alpha : float;
  beta : float;
  gemm_tile : gemm_tile option;
      (** Which GEMM dimension tracks the spatial y axis, so the tiling
          phase can restrict the call to a row block. *)
}

and gemm_tile = {
  role : tile_role;
  rows_per_y : int;  (** GEMM rows per unit of y (e.g. image width). *)
  y_extent : int;
}

and tile_role =
  | Rows_m  (** y collapsed into the m dimension (transa = false). *)
  | Rows_k  (** y collapsed into the k dimension (transa = true,
                transb = false); tiles accumulate partial sums. *)

and extern_call = {
  name : string;
  reads : string list;
  writes : string list;
  item_var : string option;
      (** Loop variable holding the batch index, when the call sits
          under the batch loop. *)
  run : lookup:(string -> Tensor.t) -> item:int -> unit;
      (** Opaque array-style operation (softmax, loss, ...). [item] is
          the value of [item_var], else 0. *)
}

(** {2 Construction helpers} *)

val int_ : int -> iexpr
val var : string -> iexpr
val f : float -> fexpr

(** Operators for building expressions; kept in a submodule so that
    [open Ir] does not shadow float arithmetic. *)
module Infix : sig
  val ( +! ) : iexpr -> iexpr -> iexpr
  val ( -! ) : iexpr -> iexpr -> iexpr
  val ( *! ) : iexpr -> iexpr -> iexpr
  val ( +.. ) : fexpr -> fexpr -> fexpr
  val ( -.. ) : fexpr -> fexpr -> fexpr
  val ( *.. ) : fexpr -> fexpr -> fexpr
  val ( /.. ) : fexpr -> fexpr -> fexpr
end

val load : string -> iexpr list -> fexpr
val store : string -> iexpr list -> fexpr -> stmt
val accum : string -> iexpr list -> fexpr -> stmt
val accum_max : string -> iexpr list -> fexpr -> stmt

val loop : ?parallel:bool -> ?tile:tile_meta -> ?vectorize:bool ->
  string -> iexpr -> iexpr -> stmt list -> stmt
(** [loop v lo hi body] builds a sequential loop statement. *)

(** {2 Generic traversal and simplification} *)

val simplify_iexpr : iexpr -> iexpr
(** Constant folding and algebraic identities (x+0, x*1, x*0, ...). *)

val simplify_stmts : stmt list -> stmt list
(** Applies {!simplify_iexpr} everywhere and drops empty loops. *)

val subst_iexpr : string -> iexpr -> iexpr -> iexpr
(** [subst_iexpr v e t] replaces [Ivar v] by [e] within [t]. *)

val subst_fexpr : string -> iexpr -> fexpr -> fexpr
val subst_stmt : string -> iexpr -> stmt -> stmt

val map_stmts : (stmt -> stmt) -> stmt list -> stmt list
(** Bottom-up statement transformation. *)

val loads : fexpr -> (string * iexpr list) list
(** Every [Load] in the expression, conditions included, as
    [(buffer, index)], the last one visited first. *)

val cond_loads : cond -> (string * iexpr list) list
(** {!loads} of the expressions a condition compares. *)

val buffers_read : stmt list -> string list
(** Sorted, deduplicated names of buffers read anywhere in the program. *)

val buffers_written : stmt list -> string list

val rename_vars : suffix:string -> stmt -> stmt
(** Appends [suffix] to every loop variable bound inside the statement
    (and their uses), making loop variable names unique before fusion. *)
