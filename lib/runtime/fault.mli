(** Deterministic fault injection for the runtime (§5.3, §6 regime).

    Long-running multi-node training is exactly where crashes,
    stragglers, and numerical blow-ups are routine. A {!t} (a "fault
    plan") arms a fixed set of faults up front — crash during a
    checkpoint write, NaN/Inf poisoning of a named buffer at iteration
    [k], simulated worker death at step [s], per-node straggler slowdown
    factors — and the runtime layers ({!Checkpoint}, {!module:Trainer},
    [Data_parallel], [Cluster_sim]) consult it through the hooks below.
    Every failure mode is therefore testable in-process and
    reproducibly: the same seed and the same plan fire the same faults
    at the same points. *)

exception Injected_crash of string
(** Raised by the crash-during-checkpoint-write fault. In production
    this models the process dying mid-write; in tests it is caught to
    assert the on-disk invariants (the previous checkpoint survives). *)

type spec =
  | Crash_save of { at_save : int }
      (** Crash during the [at_save]-th checkpoint write (0-based,
          counted over the plan's lifetime). *)
  | Poison of { buf : string; at_iter : int; value : float }
      (** Overwrite buffer [buf] with [value] (NaN/Inf) at the start of
          training iteration [at_iter]. One-shot: fires once, so a
          rollback-and-retry does not re-poison. *)
  | Kill_worker of { worker : int; at_step : int }
      (** Data-parallel worker [worker] dies at step [at_step] and stays
          dead for the rest of the run. *)
  | Straggler of { node : int; factor : float }
      (** Node [node]'s compute runs [factor]x slower (>= 1.0) in the
          cluster simulator. *)
  | Slow_section of { label : string; factor : float }
      (** Serving: any compiled section whose label contains [label]
          runs [factor]x slower on the serving runtime's simulated
          clock. Persistent (not one-shot), like {!Straggler}. *)
  | Poison_output of { buf : string; at_forward : int }
      (** Serving: corrupt output buffer [buf] with NaN right after the
          [at_forward]-th fast-path forward (0-based, counted over the
          plan's lifetime, retries included). One-shot. *)
  | Hang_section of { label : string; seconds : float }
      (** Serving: the first compiled section whose label contains
          [label] stalls for [seconds] simulated seconds on top of its
          cost-model estimate — far past any deadline, so the hang
          watchdog (not the deadline check) must catch it. One-shot. *)
  | Kill_domain of { worker : int; at_dispatch : int }
      (** Serving: worker domain [worker] (1-based; clamped into the
          pool's range) of the executing {!Domain_pool} dies at the
          start of pool dispatch [at_dispatch] (0-based, counted over
          the pool's lifetime). One-shot; armed into the pool via
          {!domain_kills} + [Domain_pool.arm_kill], recorded when the
          serving layer observes the death ({!note_domain_kill}). *)
  | Alloc_spike of { bytes : int }
      (** Serving: a one-shot surge of [bytes] external allocation
          charged against the process memory budget
          ([Buffer_pool.charge_external]) at the next pump, forcing
          eviction/shedding under pressure. *)

type event = { at : int; what : string }
(** A fault that actually fired: the iteration/step/save index it fired
    at and a human-readable description. *)

type t

val none : t
(** The empty plan: no faults ever fire. The default everywhere. *)

val plan : ?seed:int -> spec list -> t
(** Arm a plan. [seed] (default 0) is recorded for reproducibility
    bookkeeping and reserved for randomized fault families. *)

val seed : t -> int
val specs : t -> spec list
val is_empty : t -> bool

val parse : string -> t
(** Parse the CLI fault spec: comma-separated items of the forms
    [crash-save@N], [nan:BUF@K], [inf:BUF@K], [kill:W@S], [slow:NODE@F],
    [slow-section:LABEL@F], [poison-out:BUF@K], [hang-section:LABEL@S],
    [kill-domain:K@T], and [alloc-spike:BYTES]
    (e.g. ["crash-save@1,nan:fc1.weights@40,kill:1@30"]).
    Raises [Invalid_argument] with a usage message on bad syntax
    (including [kill-domain] with worker < 1 and [alloc-spike] with a
    non-positive byte count). *)

val to_string : t -> string
(** Render back into the {!parse} syntax (empty string for {!none}). *)

(** {1 Hooks} Called by the runtime at its fault points. *)

val on_checkpoint_save : t -> unit
(** Called once per checkpoint write, mid-write (after the header, while
    the temp file is partially written). Counts saves; raises
    {!Injected_crash} when an armed [Crash_save] index is reached. *)

val poisons_at : t -> iter:int -> (string * float) list
(** Buffer poisonings due at [iter] that have not fired yet; marks them
    fired. *)

val killed_workers : t -> step:int -> int list
(** Workers whose kill step is [<= step], sorted ascending. Records an
    event the first time each kill becomes visible. *)

val straggler_factor : t -> node:int -> float
(** Compute slowdown multiplier for [node] (1.0 when unaffected). *)

val stragglers : t -> (int * float) list
(** All armed [(node, factor)] straggler entries. *)

val section_factor : t -> label:string -> float
(** Serving-time slowdown multiplier for the compiled section [label]:
    the product of the factors of every armed [Slow_section] whose label
    occurs as a substring of [label] (1.0 when none match). *)

val poison_outputs_at : t -> forward:int -> string list
(** Output buffers to corrupt right after fast-path forward [forward];
    one-shot, marks them fired and records events. *)

val poison_output_bufs : t -> string list
(** Every buffer named by an armed [Poison_output] (fired or not) — for
    early validation against the program's buffer plan. *)

val hang_seconds : t -> forward:int -> label:string -> float
(** Total simulated stall due on section [label] during fast-path
    forward [forward] from armed, un-fired [Hang_section]s whose label
    occurs as a substring of [label]; one-shot (marks them fired and
    records events). 0.0 when none match. *)

val domain_kills : t -> (int * int) list
(** All armed [(worker, at_dispatch)] domain-kill entries, for arming
    into the executing pool with [Domain_pool.arm_kill]. Does not mark
    them fired — see {!note_domain_kill}. *)

val note_domain_kill : t -> worker:int -> at:int -> unit
(** Record that an armed [Kill_domain] actually fired: the serving layer
    calls this once per dead worker it observes via
    [Domain_pool.Worker_died]. Marks the first un-fired [Kill_domain]
    fired (the pool clamps worker indices, so specs are matched in
    order, not by index) and records an event. *)

val alloc_spike_due : t -> int
(** Total bytes of one-shot [Alloc_spike]s not yet fired; marks them
    fired and records events. 0 when none are due. *)

val events : t -> event list
(** Every fault fired so far, in firing order. *)
