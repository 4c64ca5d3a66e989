(** Static dependence and race analysis for parallel loops (§5.4.3).

    For a candidate parallel loop over [v], every buffer accessed in the
    body is classified against the loop's iteration space:

    - {b Independent}: iterations provably touch disjoint index sets —
      every (write, write) and (write, read) access pair is separated
      across distinct iterations. Proven with a GCD/Banerjee-style test
      over {!Ir_linear} normal forms: each access footprint is reduced
      to a per-iteration band [\[lo(v), hi(v)\]] by substituting inner
      loop variables with their bound expressions, and the band of
      iteration [v] is separated from the band of iteration [v + k]
      (a fresh [k ≥ 1] bounded by the trip count) using
      {!Ir_bounds.range} — which inherits linear cancellation, min/max
      distribution and symbolic loop bounds, so tiling's clamped bounds
      [\[t·r, min(ext, (t+1)·r))] prove disjoint exactly.
    - {b Reduction}: the buffer is only ever updated by [Accum]s with
      one associative operator (a [beta ≠ 0] GEMM counts as a [+=]
      accumulation) and never otherwise read in the loop — replayable
      in iteration order.
    - {b Conflicting}: a cross-iteration dependence with a concrete
      witness — two distinct iteration numbers and the index both
      provably touch. Witnesses are only claimed for unguarded accesses
      whose enclosing loops provably execute.
    - {b Unknown}: none of the above could be established; the reason
      names the accesses the tests could not separate.

    Consumers: {!Ir_verify} rejects parallel annotations only on
    [Conflicting]/[Unknown]; {!Ir_compile}'s partitioner moves
    [Independent]-proven buffers out of the sequential replay, where
    [Reduction] buffers ([+] and [max] alike) stay; the [parallelize]
    pass annotates loops the syntactic batch/tile rule skips.

    The analysis is name-based: two buffer names aliased onto one
    storage block by in-place planning are classified separately (the
    runtime partitioner re-checks physical identity before acting on a
    verdict). *)

type witness = {
  wit_buf : string;
  wit_iter_a : int;
  wit_iter_b : int;  (** Two distinct iterations of the parallel var. *)
  wit_index : int list;
      (** The per-dimension index both iterations touch (a single flat
          offset for span accesses — GEMM operands, memsets). *)
  wit_stmt_a : string;
  wit_stmt_b : string;  (** Head lines of the colliding statements. *)
}

type verdict =
  | Independent
  | Reduction of Ir.accum_op
  | Conflicting of witness
  | Unknown of string

type buffer_verdict = { bv_buf : string; bv_verdict : verdict }

type loop_report = {
  lr_var : string;  (** The parallel loop variable. *)
  lr_verdicts : buffer_verdict list;  (** Sorted by buffer name. *)
}

val verdict_to_string : verdict -> string
val witness_to_string : witness -> string

val legal : buffer_verdict list -> bool
(** No [Conflicting] or [Unknown] verdict. *)

val analyze_loop :
  ?env:Ir_bounds.env ->
  shape_of:(string -> int array option) ->
  Ir.loop ->
  buffer_verdict list
(** Classify every buffer accessed in the loop body under the loop's
    variable. [env] binds enclosing loop variables and guard facts
    (outer variables are shared between iterations; unbound ones range
    over top). *)

val analyze_stmts :
  ?env:Ir_bounds.env ->
  shape_of:(string -> int array option) ->
  Ir.stmt list ->
  loop_report list
(** [analyze_loop] applied to every [parallel]-annotated loop in the
    statements, outermost first, each under the environment of its
    enclosing loops. *)

val report_table : (string * loop_report list) list -> string
(** Render per-section reports as the aligned table [latte analyze
    --races] prints (one row per (section, loop, buffer), witness
    detail lines under conflicting rows). *)
