(** A persistent, self-healing pool of OCaml 5 worker domains for
    parallel-loop execution (§5.4.3).

    Workers are spawned once and parked between jobs; {!run} hands every
    worker (the caller included, as worker 0) the job and returns only
    when all of them have finished — a reusable dispatch + barrier.
    Exceptions raised by workers are re-raised in the caller (lowest
    worker index wins) after the barrier, so the pool stays usable.

    Failures are detected at the barrier and healed in place: a worker
    death ({!arm_kill}) respawns the slot and raises {!Worker_died} so
    the caller can re-run the interrupted job bit-identically on the
    recovered pool; a stuck worker trips the watchdog deadline of
    {!run}, is abandoned (its eventual completion is discarded) and
    replaced, raising {!Hung}. *)

type t

exception Worker_died of int list
(** One or more worker domains died during the job. Raised by {!run}
    after the barrier, once the dead slots have already been respawned —
    the pool is immediately usable; re-running the job produces
    bit-identical results because no partial chunk from the dead worker
    is kept. Carries the sorted dead worker indices. *)

exception Hung of { workers : int list; waited_s : float }
(** The watchdog deadline passed to {!run} expired with [workers] still
    inside the job. The stuck slots were abandoned and respawned before
    raising (a stuck worker that eventually finishes exits as a harmless
    zombie, joined at {!shutdown}); the pool is usable again. *)

val create : int -> t
(** [create size] spawns [size - 1] domains (the caller is worker 0).
    Raises [Invalid_argument] when [size < 1]. A pool of size 1 spawns
    nothing and [run] degenerates to a plain call. *)

val size : t -> int

val run : ?deadline_s:float -> t -> (int -> unit) -> unit
(** [run pool f] executes [f w] for every worker index
    [w] in [0, size)] — [f 0] on the calling domain — and returns once
    all have completed. Not reentrant: do not call [run] from inside a
    job on the same pool.

    With [deadline_s], the caller polls the barrier against a wall-clock
    bound instead of blocking on the condition variable; on expiry the
    stuck workers are abandoned and respawned and {!Hung} is raised.
    Without it the barrier wait is a pure condvar wait — the watchdog
    costs nothing unless armed. No library caller arms it: the serving
    watchdog is [Fleet]'s cancellation token, checked against the
    simulated clock. *)

val shutdown : t -> unit
(** Stop and join the worker domains (abandoned zombies included).
    Idempotent and exception-safe: the domains to join are claimed under
    the pool lock, so double or re-entrant shutdown (e.g. overlapping
    [at_exit] handlers) is a no-op, not a hang. [run] after shutdown
    raises [Invalid_argument]. *)

val arm_kill : t -> worker:int -> at_dispatch:int -> unit
(** Arm an injected worker death: worker [worker] (1-based; clamped into
    the pool's range so fault plans stay meaningful at any domain count)
    exits its domain at the start of dispatch number [at_dispatch]
    (0-based, see {!dispatches}) without running its chunk. The death
    completes its barrier slot, so the dispatching {!run} raises
    {!Worker_died} after healing rather than hanging. No-op on a pool of
    size 1. Raises [Invalid_argument] for [worker < 1] or a negative
    dispatch. *)

val clear_kills : t -> unit
(** Disarm all pending {!arm_kill}s. *)

val dispatches : t -> int
(** Jobs dispatched over the pool's lifetime (size > 1 pools only). *)

val respawns : t -> int
(** Worker domains respawned over the pool's lifetime — via death
    healing, watchdog abandonment, or {!respawn_workers}. *)

val respawn_workers : t -> int
(** Proactively recycle every worker domain (join the parked incarnation,
    spawn a fresh one); returns how many were respawned. The serving
    layer calls this after a watchdog-triggered cancellation to put the
    pool back in a known-good state. Must be called between jobs; a
    no-op returning 0 on size-1 or shut-down pools. *)

val heartbeats : t -> int array
(** Per-worker-slot completed-job counts for the current incarnations
    (reset to 0 when a slot is respawned); index [i] is worker [i + 1].
    A slot whose heartbeat stops advancing while {!dispatches} grows is
    wedged. *)

val runner : t -> Ir_compile.par_runner
(** The pool as the chunk dispatcher {!Ir_compile.compile} consumes. *)

val shared : int -> t
(** [shared n] is a process-lifetime pool of size [max 1 n], created on
    first request and reused thereafter (OCaml caps live domains, so
    executors share pools). Shut down automatically at process exit. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]. *)
