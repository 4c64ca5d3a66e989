(** Interval-based bounds and safety analysis over the loop IR.

    An abstract interpreter that derives a value interval for every
    {!Ir.iexpr} — loop variables range over their enclosing [For]
    bounds, everything else follows by interval arithmetic — and uses
    the intervals to prove that each [Load]/[Store]/[Accum] index and
    each [Gemm] operand span stays inside the planned buffer extent.
    Accesses the analyzer proves are compiled by {!Ir_compile} on the
    unsafe fast path; everything else gets a runtime guard.

    Three refinements make the synthesized programs fully provable:

    - {b Linear normal form.} Expressions are normalized to
      [k + Σ coeff·atom] with atoms compared structurally, so
      correlated terms cancel exactly. The tiling pass emits GEMM row
      counts like [((t+1)·r − t·r)·rows_per_y]; plain interval
      subtraction widens that to an unprovable range while the linear
      form reduces it to the constant [r·rows_per_y].
    - {b Guard facts.} Walking into an [If]/[Select] branch records the
      branch condition's integer comparisons as interval facts keyed by
      the (simplified) operand expression. The padding guards built by
      the synthesizer test exactly the coordinate expressions they
      protect, so the guarded load's index is refined to the buffer
      extent even though its unguarded range dips into the padding.
    - {b Symbolic loop bounds.} A loop variable remembers its bound
      {e expressions}, not just their interval. Ranging [d + w − 1]
      under [d ≥ max(0, 1 − w)] substitutes the bound and distributes
      the [max] over the linear form ([c·max(x,y) + R = max(c·x + R,
      c·y + R)]), so the correlated [w] terms cancel and the clamped
      convolution window of a padded layer is proven in-bounds without
      any runtime guard.

    The same module hosts the section-order flow checks: def-before-use
    (reads of buffers never covered by a [Memset]/[Store]/GEMM
    overwrite earlier in section order) and a dead-store lint. *)

(** {2 Intervals} *)

type bound = Neg_inf | Fin of int | Pos_inf

type interval = { lo : bound; hi : bound }
(** May be empty ([lo > hi]); an empty interval means the program point
    is unreachable and every check on it holds vacuously. *)

val interval : int -> int -> interval
val top : interval
val point : int -> interval
val is_empty : interval -> bool
val interval_to_string : interval -> string

(** {2 Abstract environment} *)

type env
(** Loop-variable ranges plus guard facts accumulated from enclosing
    [If]/[Select] conditions. *)

val empty_env : env

val bind : string -> interval -> env -> env
(** Bind a loop variable to its value interval. *)

val bind_range : string -> lo:Ir.iexpr -> hi:Ir.iexpr -> env -> env
(** Bind a loop variable iterating [\[lo, hi)]: its value interval plus
    the symbolic bound expressions used for relational tightening. *)

val assume : Ir.cond -> env -> env
(** Refine with the facts implied by [cond] holding. *)

val assume_not : Ir.cond -> env -> env
(** Refine with the facts implied by [cond] failing. *)

val range : env -> Ir.iexpr -> interval
(** The interval of possible values of the expression under [env]. *)

val loop_interval : env -> lo:Ir.iexpr -> hi:Ir.iexpr -> interval
(** Value interval of a loop variable iterating [\[lo, hi)]. *)

(** {2 Findings} *)

type kind =
  | Out_of_bounds  (** Index interval provably outside the extent. *)
  | Unproven  (** Interval not contained in the extent; guarded. *)
  | Div_by_zero  (** Divisor interval contains zero. *)
  | Use_before_init  (** Read of a buffer with no earlier overwrite. *)
  | Dead_store  (** Buffer written but never read and not live-out. *)
  | Narrow_accum
      (** Accumulation into sub-f32 (int8) storage: each partial
          update re-rounds through the narrow encoding. *)

type finding = {
  kind : kind;
  region : string;
  buf : string option;
  detail : string;
}

val is_fatal : kind -> bool
(** [Out_of_bounds] and [Use_before_init] are definite bugs; the rest
    are lint/guard material. *)

val finding_to_string : finding -> string

(** {2 Access classification} *)

type stats = { proven : int; guarded : int; flagged : int }
(** Per-access verdict counts: proven in-bounds (unsafe fast path),
    unproven (runtime guard), provably out of bounds. *)

val zero_stats : stats
val add_stats : stats -> stats -> stats

type region_report = { region : string; stats : stats; findings : finding list }

type flow = {
  physical : string -> string;
      (** Alias resolution; flow facts live on physical buffers. *)
  assume_init : string list;
      (** Buffers initialized before the program runs (inputs,
          parameters — physical names). *)
  live_out : string list;
      (** Buffers read after the program runs (parameter values and
          gradients — physical names); exempt from the dead-store
          lint. *)
}

type report = {
  region_reports : region_report list;
  flow_findings : finding list;
  totals : stats;
}

val analyze :
  shape_of:(string -> int array option) ->
  ?flow:flow ->
  ?storage_of:(string -> Precision.any option) ->
  (string * (string * interval) list * Ir.stmt list) list ->
  report
(** [analyze ~shape_of regions] checks every access in every region
    [(name, bound_vars, stmts)]; [bound_vars] gives intervals for
    variables bound outside the statements (the batch variable). When
    [flow] is given the regions are additionally treated as one program
    in list order and the def-before-use / dead-store checks run. When
    [storage_of] is given, [Accum]s into buffers stored narrower than
    f32 are flagged with the non-fatal [Narrow_accum] lint. *)

val fatal_findings : report -> finding list
val all_findings : report -> finding list
val summary : report -> string

(** {2 Codegen support} *)

val access_proven : env -> shape:int array -> Ir.iexpr list -> bool
(** Every index component provably lies in [\[0, shape.(k))]. *)

val gemm_proven :
  env -> shape_of:(string -> int array option) -> Ir.gemm -> bool
(** All three operand spans [off + \[0, rows·cols)] provably fit. *)

val check_gemm_spans :
  Ir.gemm ->
  m:int ->
  n:int ->
  k:int ->
  off_a:int ->
  off_b:int ->
  off_c:int ->
  extent_a:int ->
  extent_b:int ->
  extent_c:int ->
  unit
(** The run-time twin of {!gemm_proven}, over evaluated sizes and
    offsets: raise [Invalid_argument "latte: out-of-bounds gemm operand
    ..."], naming the operand (A, B or C), its buffer and its span,
    unless each span [\[off, off + rows·cols)] lies in
    [\[0, extent)]. The GEMM kernels never check bounds, so every call
    is either proven or passes this check first: {!Ir_compile} runs it
    on unproven calls, {!Ir_eval} on every call. *)

val stmt_proven :
  env -> shape_of:(string -> int array option) -> Ir.stmt -> bool
(** Every access anywhere inside the statement is proven — the gate for
    {!Ir_compile}'s unsafe specialized loop kernels. *)
