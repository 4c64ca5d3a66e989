(** The compiled form of a network: what the Latte compiler emits and
    the executor runs.

    A program is a list of {!section}s for each direction. Sections are
    the unit of timing and of scheduling: a fused group of layers is one
    section, an unfused layer is its own section. Each section's
    statements are complete (they include their own batch loop when the
    work is per-item). *)

type section = {
  label : string;  (** e.g. ["conv1_1+relu1_1+pool1"]. *)
  ensembles : string list;  (** Contributing ensembles, topo order. *)
  stmts : Ir.stmt list;
}

type param = {
  param_name : string;
  value_buf : string;
  grad_buf : string;
  lr_mult : float;
}

type t = {
  batch_size : int;
  buffers : Buffer_pool.t;
  forward : section list;
  backward : section list;
  params : param list;  (** Learnable parameters, for solvers. *)
  grad_sizes : (string * int) list;
      (** Per-ensemble learnable-gradient element counts in backward
          completion order — what the distributed runtime synchronizes,
          in the order the asynchronous reductions are issued (§5.3). *)
  schedule_descr : string option;
      (** When an explicit or cached schedule override was set for
          the compile: its canonical description
          prefixed with its source, e.g. ["cache: tile(ip1)=8"]. [None]
          for purely heuristic (static) compilations. *)
}

val section : label:string -> ensembles:string list -> Ir.stmt list -> section

val fingerprint : t -> string
(** A hex digest of the *network* identity behind this program — batch
    size, contributing ensembles, parameters with shapes, gradient
    sizes — deliberately invariant across optimization configs,
    schedules and storage precisions, so it can anchor the tuning-cache
    key ({!Tune_cache.key}) for any compilation of the same network. *)

val precision_tag : t -> string
(** The execution precision the program's buffers are packed at
    (["f32"] or ["int8"]), matching
    [Precision.preset_to_string]. *)

val flops : t -> [ `Forward | `Backward ] -> float
(** Static flop count of one execution, from {!Ir_analysis}. *)

val section_cost :
  ?bytes_of:(string -> float) ->
  ?width_of:(string -> float) ->
  section ->
  Ir_analysis.cost
(** [bytes_of] charges [Extern] calls for streaming their declared
    buffers once; [width_of] gives per-buffer element widths so packed
    buffers are charged their narrow storage (see
    {!Ir_analysis.cost_of_stmts}). *)

val width_of : t -> string -> float
(** Element width in bytes of a named buffer from the program's own
    pool (4.0 for unknown names) — the [width_of] argument to
    {!section_cost} for precision-aware byte accounting. *)

val races : t -> (string * Ir_deps.loop_report list) list
(** Run the {!Ir_deps} dependence analyzer over every parallel loop of
    every section (forward first, then backward); sections with no
    parallel loops are omitted. Feeds [latte analyze --races]. *)

val analyze : ?live_out:string list -> t -> Ir_bounds.report
(** Run the interval bounds / safety analyzer over every section of the
    program (forward sections first, then backward, in execution order).
    Buffer shapes come from the program's own pool; the flow check
    resolves aliases to physical buffers, assumes buffers the program
    never writes (input data, labels, parameter values) are initialized
    by the runtime, and treats parameter value/grad buffers plus
    [live_out] as live after the program for the dead-store lint. *)
