(** The serving runtime: one batch engine for one model or a fleet.

    A {!Registry} holds lazily-compiled, hash-keyed, LRU-evicted
    executor pairs — the optimized fast program and its
    {!Config.unoptimized} reference — over one or many models. A
    {!Router} multiplexes the shared domain pool across tenants with
    weighted-fair scheduling, per-tenant token-bucket admission
    control, per-tenant bounded queues and per-tenant deadlines. Single
    model serving ([latte serve-sim], [bench serve]) is a one-tenant
    fleet over a one-model registry, with an unlimited token bucket.

    Each batch packs up to the program's batch size of requests
    (zero-padding short batches) and runs the breaker-guarded fast path
    section by section: a NaN/Inf guard over the live output rows,
    bounded retry with exponential backoff, a {!Breaker} that degrades
    to the reference executor (answers marked [degraded]) until a
    half-open probe restores the fast path, a per-section hang watchdog
    and a runtime deadline that cancel the batch mid-run (partial work
    scrubbed, workers recycled after a watchdog firing), and transparent
    bit-identical re-runs when an injected worker-domain death heals.

    {e Rolling model updates}: the new version compiles in the
    background of the simulated timeline, is atomically swapped in, and
    is instantly rolled back to the pinned prior version the moment its
    circuit breaker opens (a NaN/Inf guard firing opens it at the
    default threshold 1). The batch that tripped the breaker is re-run
    on the restored version, so a bad release never costs a tenant a
    request.

    Every admitted request resolves to exactly one of [Done], [Timeout],
    [Shed] (its tenant's queue was full) or [Throttled] (its tenant's
    token bucket was empty) — one tenant's burst can exhaust only its
    own bucket and queue. Time is simulated, so runs are deterministic
    and independent of the wall clock: each forward advances the shared
    fleet clock by the {!Cost_model} estimate, inflated by
    [slow-section] faults from the fleet-wide plan and the active
    version's own plan, and stalled by their [hang-section] faults. *)

type status =
  | Queued
  | Batched
  | Done of {
      output : float array;
      degraded : bool;
      latency : float;
      tenant : string;
      model : string;
      version : int;  (** The model version that produced the answer. *)
    }
  | Timeout
  | Shed  (** Refused at admission: the tenant's queue was full. *)
  | Throttled  (** Refused at admission: the tenant's token bucket was empty. *)

val status_name : status -> string

(** Fleet lifecycle events, each stamped with simulated time. *)
type event =
  | Compiled of {
      model : string;
      version : int;
      key : string;  (** The registry cache key it compiled under. *)
      at : float;
      wall_seconds : float;
    }
  | Update_started of {
      model : string;
      version : int;
      at : float;
      ready_at : float;  (** When the background compile finishes and the swap lands. *)
    }
  | Swapped of { model : string; from_version : int; to_version : int; at : float }
  | Rolled_back of {
      model : string;
      from_version : int;
      to_version : int;
      at : float;
      reason : string;
    }
  | Committed of { model : string; version : int; at : float }
      (** The update survived its settle window; the prior version is
          unpinned. *)
  | Breaker_moved of {
      model : string;
      version : int;
      transition : Breaker.transition;
    }
  | Cancelled_batch of {
      model : string;
      at : float;
      requests : int;
      reason : string;  (** Watchdog firing or runtime deadline. *)
    }
      (** A batch was cancelled mid-run: partial work discarded, every
          request answered [Timeout] (counted [cancelled_midrun]). *)
  | Respawned of { model : string; at : float; workers : int; reason : string }
      (** Worker domains were recycled — either dead ones healed at the
          barrier, or a post-watchdog preemptive recycle. *)
  | Mem_pressure of { at : float; bytes : int; evicted : int }
      (** An external allocation spike was charged to the process
          ledger; [evicted] registry entries were dropped to get back
          under the budget. *)

val event_to_string : event -> string

type t

val create :
  ?failure_threshold:int ->
  ?cooldown:float ->
  ?max_retries:int ->
  ?backoff:float ->
  ?settle_forwards:int ->
  ?watchdog_slack:float ->
  ?faults:Fault.t ->
  registry:Registry.t ->
  tenants:Router.tenant list ->
  unit ->
  t
(** One model state per registered model (all starting at version 0,
    uncompiled), one metrics stream per tenant. [failure_threshold] /
    [cooldown] parameterize every version's breaker; [settle_forwards]
    (default 8) is how many consecutive successful fast forwards a
    freshly-swapped version must serve before its update commits;
    [watchdog_slack] (default 8.0) is the per-section overrun factor
    past which the hang watchdog cancels the batch (raises
    [Invalid_argument] below 1); [faults] is the fleet-wide plan
    ([slow-section] factors, [hang-section] stalls, [poison-out] and
    [kill-domain] against the fleet-global counters). The first time a
    (model, version) compiles, every [poison-out] target of the plan must
    be an f32 buffer of its fast program (an int8-packed buffer would
    turn NaN into a finite code); otherwise the call that triggered the
    compile raises [Invalid_argument] naming the buffer, the model and
    the f32 buffers available. *)

(** {1 Clock} *)

val now : t -> float
val advance : t -> float -> unit
val advance_to : t -> float -> unit

(** {1 Admission} *)

val submit :
  t -> tenant:string -> model:string -> ?deadline:float -> float array -> int
(** Admit a request (compiling the model's active version lazily if this
    is its first touch). [deadline] is absolute simulated time (default:
    now plus the tenant's configured relative deadline). The verdict is
    immediate:
    queued, [Throttled], or [Shed]. A model that cannot be made resident
    under the process memory budget ({!Registry.Over_budget}) sheds the
    request (counted [mem_shed]). Raises [Invalid_argument] for an
    unknown tenant/model, a wrong feature count, or a bad [poison-out]
    target found by the model's first compile (see {!create}). *)

(** {1 Rolling updates} *)

val begin_update :
  t -> model:string -> ?faults:Fault.t -> ?compile_seconds:float -> unit -> int
(** Start a rolling update: the next version number is burnt (monotone
    even across rollbacks), compiled now, pinned together with the
    current active version, and atomically swapped in once
    [compile_seconds] (default 0.05 simulated seconds — the modeled
    background compile) have elapsed. [faults] arms a plan private to
    the new version, its [poison-out] indices counting that version's
    own forwards — chaos scenarios use it to make a release go bad.
    Returns the new version number. Raises [Invalid_argument] when an
    update is already in flight or still settling, or when [faults]
    poisons a buffer that is not f32 in the new version's fast
    program. *)

val update_in_flight : t -> string -> bool
(** An update is pending, or swapped but not yet committed. *)

(** {1 Scheduling} *)

val pump : t -> bool
(** One scheduling step: charge any due [alloc-spike] faults (evicting
    registry entries back under the budget), land any due swaps, answer
    deadline-expired requests [Timeout], then weighted-fair-select one
    model batch and run it through the breaker-guarded
    fast/rollback/degraded path — cancelling it mid-run on a watchdog
    firing or once every deadline in it has expired. [false] when no
    live request was available. *)

val drain : t -> unit
(** Pump until every queue is empty. *)

(** {1 Observers} *)

val status : t -> int -> status
(** Raises [Invalid_argument] for an unknown id. *)

val unanswered : t -> int
(** Requests still [Queued]/[Batched] — 0 after {!drain}. *)

val metrics : t -> Serve_metrics.t
(** Fleet-level counters and latency percentiles. *)

val tenant_metrics : t -> string -> Serve_metrics.t
(** One tenant's stream. Raises [Invalid_argument] for unknown names. *)

val registry : t -> Registry.t
val router : t -> Router.t
val faults : t -> Fault.t

val forwards : t -> int
(** Fleet-global fast forwards executed (all models, retries included). *)

val watchdog_slack : t -> float
val swaps : t -> int
val rollbacks : t -> int

val events : t -> event list
(** Chronological lifecycle timeline — compiles, update swaps,
    rollbacks, commits, breaker transitions. *)

val active_version : t -> string -> int
val breaker : t -> string -> Breaker.t
(** The breaker of the model's {e active} version. *)

val oldest_wait : t -> float option
val queued : t -> int
val batch_size : t -> string -> int
val item_numel : t -> string -> int
val param_bytes : t -> string -> float
(** Parameter payload of the active version — what a rolling update
    broadcasts per node ({!Cluster_sim.broadcast_seconds}). *)

val report : t -> string
(** Multi-line report: registry stats, per-model active version and
    breaker state, fleet metrics, the per-tenant table (counts, p95,
    p99.9, shed rate), and the event timeline (update/rollback
    timestamps included). *)
