(** Fleet-level registry of prepared executor pairs.

    Models are registered as descriptions (a build function plus its
    {!Config.t} and seed) and compiled {e lazily}: the first
    {!get} for a (model, version) runs {!Pipeline.compile_pair} and
    prepares both executors under the registry's shared
    {!Executor.Run_opts} — one domain pool multiplexed across every
    model in the fleet. Prepared pairs live in a {e hash-keyed} cache
    (the key fingerprints model, version, every compiler flag, the run
    options and the version-derived parameter seed, after LoopStack's
    per-(model, machine) artifacts and Tensor Comprehensions' tuned-
    kernel cache) and are {e LRU-evicted} once more than [capacity]
    pairs are resident — except entries pinned by the fleet's rolling
    updates, which must stay resident for instant rollback.

    Version [k] of a model compiles with [seed + k]: an update is the
    same architecture carrying new (retrained) parameter values.

    Tuned schedules from {!Tune_cache} flow in transparently:
    {!Pipeline.compile_pair} consults the cache whenever the model's
    config has no explicit schedule, so a previously [latte tune]d
    model serves its measured-best schedule, at the schedule's domain
    count when it names one. The registry key does NOT include the
    schedule — tuned output is bit-identical to default output, so the
    two compiles are interchangeable. *)

type entry = {
  key : string;  (** The cache key — [model#vN@<hex12>]. *)
  model : string;
  version : int;
  input_buf : string;
  output_buf : string;
  fast : Executor.t;
  reference : Executor.t;  (** {!Config.unoptimized} degradation target. *)
  quantized : bool;
      (** The fast path serves from int8 storage, per the model
          config's [precision] preset; the reference is always full
          f32. *)
  fast_costs : (string * float) list;
      (** Modeled simulated seconds per forward section. *)
  ref_costs : (string * float) list;
  batch : int;
  item_numel : int;
  param_bytes : float;
      (** Parameter payload (f32 bytes) — what a rolling update must
          broadcast to every node ({!Cluster_sim.broadcast_seconds}). *)
  compile_wall_seconds : float;  (** Wall time the lazy compile took. *)
  mutable last_used : int;  (** LRU tick; maintained by the registry. *)
  mutable pinned : bool;  (** Exempt from eviction while set. *)
}

type stats = {
  compiles : int;
  hits : int;
  evictions : int;
  resident : int;
  capacity : int;
}

type t

exception
  Over_budget of { model : string; projected : int; live : int; budget : int }
(** Raised by {!get} when admitting the model would exceed the process
    memory budget ([Buffer_pool.set_budget]) even after LRU eviction:
    the fleet sheds the request instead of over-allocating. *)

val create :
  ?capacity:int ->
  ?machine:Machine.cpu ->
  ?opts:Executor.Run_opts.t ->
  unit ->
  t
(** [capacity] (default 8) is the resident-pair high-water mark;
    [machine] (default {!Machine.xeon_e5_2699v3}) prices the simulated
    section costs; [opts] (default {!Executor.Run_opts.default}) is
    shared by every prepared executor, except that a model's schedule,
    explicit or cached, replaces [opts.domains] with its own domain
    count ({!Pipeline.compile_pair}). When [opts] carries no
    cancellation token, a fresh one is installed so every compiled
    executor in the fleet can be cancelled mid-run. Raises
    [Invalid_argument] when [capacity <= 0]. *)

val opts : t -> Executor.Run_opts.t

val register :
  t ->
  name:string ->
  ?seed:int ->
  ?config:Config.t ->
  input_buf:string ->
  output_buf:string ->
  (unit -> Net.t) ->
  unit
(** Register a model description without compiling it. [seed] defaults
    to 42, [config] to {!Config.default}. [build] must return a fresh,
    structurally identical net on each call. Raises [Invalid_argument]
    on a duplicate name. *)

val models : t -> string list
(** Registered model names, in registration order. *)

val key : t -> string -> version:int -> string
(** The cache key a (model, version) compiles under. Raises
    [Invalid_argument] for an unregistered model. *)

val get : t -> string -> version:int -> entry
(** The prepared pair for (model, version): a cache hit refreshes the
    LRU tick; a miss compiles (recording the wall time in the entry),
    evicting least-recently-used unpinned entries while more than
    [capacity] would be resident. Raises [Invalid_argument] for an
    unregistered model.

    Under a process memory budget ([Buffer_pool.set_budget]), a miss is
    admission-controlled: the model's projected footprint (measured on
    its first compile; versions share the architecture) is checked
    against [Buffer_pool.live_bytes], LRU entries are evicted to make
    room, and {!Over_budget} is raised when it still cannot fit. The
    compiled pools are tracked in the process ledger and released on
    eviction. *)

val enforce_budget : t -> int
(** Evict LRU entries until [Buffer_pool.live_bytes] fits the process
    budget (no-op without one); returns the number evicted. Called by
    the fleet after an external allocation spike. *)

val peek : t -> string -> version:int -> entry option
(** Resident lookup without compiling or touching LRU state. *)

val pin : t -> string -> version:int -> unit
(** Make (model, version) resident (compiling if needed) and exempt
    from eviction — the fleet pins the active and prior versions across
    a rolling update. *)

val unpin : t -> string -> version:int -> unit
(** Re-admit the entry to LRU eviction (no-op when not resident). *)

val stats : t -> stats
val stats_to_string : stats -> string

val evicted_keys : t -> string list
(** Keys evicted so far, in eviction order. *)
