(** The typed state threaded through the compiler's pass pipeline, and
    the pass descriptor. The registry of concrete passes lives in
    {!Pass_manager}; this module owns the data they transform and the
    introspection used for instrumentation, IR dumps and verification. *)

type piece =
  | Group of {
      units : Synthesis.unit_code list;
          (** A fusion group: adjacent units sharing one tile loop.
              Singleton before the [fuse] pass. *)
      tile : Fusion.tile_plan option;  (** Set by the [tile] pass. *)
    }
  | Hoisted of {
      unit_ : Synthesis.unit_code;
      segments : Pattern_match.segment list;
          (** Whole-batch GEMM segments produced by [batch-gemm]. *)
    }

type state = {
  config : Config.t;
  net : Net.t;
  batch : int;
  seed : int option;
  plan : Synthesis.plan option;
  fwd : piece list;
  bwd : piece list;
  fwd_sections : Program.section list option;
  bwd_sections : Program.section list option;
  par_annotated : (string * string list) list;
      (** Set by the parallelize pass: region name → loop variables it
          annotated for parallel execution, in program order. The CLI's
          [dump-ir]/[analyze] report this schedule. *)
  tile_groups : (string * int * int) list;
      (** Set by the tile pass: (group label, anchor y extent, chosen
          tile rows) per tiled group, forward then backward — the
          divisor lattice [latte tune] searches, surfaced through
          {!Pass_manager.report}. *)
}

type info = {
  name : string;
  description : string;
  paper : string;
  required : bool;
      (** Structural: always runs. An optional pass runs when its name
          is in [Config.passes]. *)
  run : state -> state;
}

val initial : ?seed:int -> Config.t -> Net.t -> state

val map_units : (Synthesis.unit_code -> Synthesis.unit_code) -> state -> state
(** Rewrite every unit still held in a {!Group} (hoisted units are left
    alone — their code lives in segments). *)

val map_pieces : (piece -> piece) -> state -> state
val map_sections : (Program.section -> Program.section) -> state -> state

val regions : state -> (string * string list * Ir.stmt list) list
(** Named IR regions of the current state as
    [(name, implicitly-bound vars, stmts)]: per-section once assembled,
    per-unit before. *)

val stats : state -> Ir_stats.t
val shape_of : state -> string -> Shape.t option
val dump : state -> string
val verify : state -> Ir_verify.error list

val analyze : state -> Ir_bounds.report option
(** Interval bounds / safety analysis ({!Ir_bounds}) of every region.
    [None] before the synthesize pass (no buffer plan to check against).
    The implicit batch variable is bound to [\[0, batch)]; the
    use-before-init / dead-store flow check is included only once
    assemble has fixed section order. *)

val finish : state -> Program.t
(** Package the assembled sections into a {!Program.t}. Raises
    [Invalid_argument] if synthesize/assemble have not run. *)
