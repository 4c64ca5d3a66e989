(** First-class compilation schedules (the `latte tune` search space).

    A schedule overrides the scalar scheduling knobs of {!Config.t} with
    per-section decisions: tile-row targets per fusion group, fusion
    groups forced back apart and a worker-domain count. Group labels are
    the "+"-joined ensemble names the fuse pass gives its sections (e.g.
    ["conv1_1+relu1_1+pool1"]), so a schedule reads directly against
    [latte dump-ir] output.

    Precedence, per knob: an explicit [Config.schedule], then the
    tuning-cache entry [Pipeline.compile_pair] looks up, then the scalar
    fallback. The tile and fuse passes read [tiles] and [fuse_off] and
    fall back to [Config.tile_size] and the static fusion heuristic;
    only [Pipeline.compile_pair] reads [domains], falling back to the
    caller's run options.

    Schedules compare canonically: {!describe} sorts its parts,
    {!digest} and {!equal} derive from it, and {!of_payload} ∘
    {!to_payload} preserves {!equal}. *)

type source =
  | Cache  (** Loaded from the persisted tuning cache. *)
  | Explicit  (** Constructed by a caller (the tuner, a test, an API user). *)

type t = {
  tiles : (string * int) list;  (** Group label → anchor tile-row target. *)
  fuse_off : string list;  (** Groups to split back into singleton units. *)
  domains : int option;
  source : source;
}

val empty : t
(** No overrides; [source = Explicit]. *)

val is_empty : t -> bool
(** [true] when the schedule overrides nothing ([source] is ignored). *)

val with_tile : string -> int -> t -> t
(** Set the tile-row target for a group label (replacing any previous
    entry for it). *)

val without_fusion : string -> t -> t
(** Mark a fusion group to be split back into singleton units. *)

val with_domains : int -> t -> t

val tile_for : t -> string -> int option
val fused : t -> string -> bool
val tile_labels : t -> string list

val source_name : t -> string
(** ["cache"] or ["explicit"] — the third value of the
    [Pass_manager.report] schedule-source column, ["static"], means no
    schedule at all. *)

val describe : t -> string
(** Canonical (sorted) human-readable form, e.g.
    ["tile(conv1+relu1)=8 nofuse(ip1+relu2) domains=2"]; ["default"]
    when empty. *)

val digest : t -> string
(** 8-hex-digit digest of {!describe} — the compact spelling in
    [Config.describe] and report rows. *)

val equal : t -> t -> bool
(** Canonical-form equality; ignores [source]. *)

val sanitize : t -> t * string list
(** Drop invalid entries (tile targets < 1) with a warning each —
    {!Config.normalize} calls this. *)

val to_payload : t -> (string * string) list
(** The {!Tune_cache} payload form. [source] is not stored. *)

val of_payload : (string * string) list -> t
(** Rebuild a schedule from a cache payload, skipping malformed and
    unknown entries (forward compatibility); [source = Cache]. *)
