(** The compiler's pass registry and instrumented driver.

    Every optimization phase is a named pass over {!Pass.state}. The
    registry fixes the execution order; the optional passes that run are
    the ones named in {!Config.passes} ({!edit} applies the CLI's
    [--passes] to it). The driver records per-pass wall time and IR
    statistics, can dump the IR after any pass, and can run the
    {!Ir_verify} well-formedness checker after every pass. *)

val passes : unit -> Pass.info list
(** The registry, in execution order. *)

val pass_names : unit -> string list

val optional_pass_names : unit -> string list
(** Names of the passes that can be disabled, in registry order. *)

val parse_spec : string -> string list
(** Split a comma-separated [--passes] spec into entries. *)

val edit : string list -> Config.t -> Config.t
(** [edit entries config] sets [config.passes] from [--passes] entries:
    ["all"], ["none"], an exact list of pass names, or [+name]/[-name]
    edits of [config.passes]. The result lists optional passes only, in
    registry order, so equal sets describe equally; it is not
    normalized ({!run} does that). Raises [Invalid_argument] on unknown
    pass names. *)

type outcome = {
  info : Pass.info;
  enabled : bool;
  seconds : float;  (** Wall time spent in the pass. *)
  stats : Ir_stats.t;  (** IR census after the pass. *)
  dump : string option;  (** IR listing, when requested via [dump_after]. *)
  bounds : Ir_bounds.report option;
      (** {!Ir_bounds} analysis after the pass, populated under
          [~verify:true] once the synthesize pass has run. *)
  sched_source : string option;
      (** For the schedule-consulting passes (fuse/tile) when enabled:
          ["static"] (heuristics), ["cache"] (tuned schedule from the
          tuning cache) or ["explicit"] (caller-provided
          {!Schedule.t}). [None] for other passes. *)
}

type report = {
  outcomes : outcome list;
  warnings : string list;
  verified : bool;
  total_seconds : float;
  parallel_annotated : (string * string list) list;
      (** What the parallelize pass scheduled: region name → loop
          variables annotated for parallel execution. Empty when the
          pass did not run. *)
  schedule_source : string;
      (** What drove the schedule-consulting passes: ["static"],
          ["cache"] or ["explicit"]. *)
  tile_groups : (string * int * int) list;
      (** (group label, anchor y extent, chosen tile rows) per tiled
          group, forward then backward — the divisor lattice
          [latte tune] enumerates. Empty when the tile pass did not
          run. *)
}

exception Verification_failed of string * Ir_verify.error list
(** Raised (pass name, diagnostics) when [~verify:true] finds
    ill-formed IR after a pass. *)

exception Analysis_failed of string * Ir_bounds.finding list
(** Raised (pass name, fatal findings) when [~verify:true] and the
    {!Ir_bounds} analyzer proves an access out of bounds or a read of
    never-initialized data after a pass. Unproven (merely guarded)
    accesses do not raise. *)

val run :
  ?seed:int ->
  ?verify:bool ->
  ?dump_after:string list ->
  Config.t ->
  Net.t ->
  Program.t * report
(** Compile [net] through the pipeline: the required passes and those
    in the {!Config.normalize}d [config.passes]. [dump_after] names
    passes whose post-pass IR should be captured in the report
    (["all"] for every enabled pass). Normalization warnings are
    printed to stderr. Raises [Invalid_argument] on an unknown name in
    [config.passes] or [dump_after]. *)
