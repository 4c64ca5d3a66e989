(** Counters and latency statistics for a serving run.

    Latencies are simulated seconds (admission to response). Every
    admitted request ends in exactly one of [done_fast], [done_degraded],
    [timeout] (deadline expired before it ran) or [cancelled_midrun]
    (cancelled in flight, also answered [Timeout]); refused requests
    count as [shed] (queue full or memory pressure) or [throttled]
    (per-tenant token bucket empty — fleet serving only). *)

type t

val create : unit -> t

(** {1 Recording} *)

val record_submitted : t -> unit
val record_shed : t -> unit
val record_throttled : t -> unit
val record_timeout : t -> unit
val record_done :
  t -> ?quantized:bool -> degraded:bool -> latency:float -> unit -> unit
(** [quantized] (default false) marks a response computed by an int8
    fast path — counted alongside fast/degraded, not instead of them. *)

val record_cancelled : t -> unit
(** A request whose run was cancelled in flight (runtime deadline
    exceeded or watchdog) — answered [Timeout], but counted separately
    from the queue-side [timeout] of requests that never ran. *)

val record_watchdog : t -> unit
(** The hang watchdog fired (per firing, not per affected request). *)

val record_mem_shed : t -> unit
(** A request shed specifically because of memory pressure; also
    counted in [shed]. *)

val record_respawn : t -> unit
(** A worker domain was respawned while serving. *)

val record_slack : t -> predicted:float -> actual:float -> unit
(** One fast-path run's cost-model prediction vs its actual (simulated)
    run time — the sum of its section times — feeding the deadline-slack
    distribution. *)

val record_batch : t -> unit
val record_fast_failure : t -> unit
val record_retry : t -> unit
val record_degraded_batch : t -> unit

(** {1 Reading} *)

val submitted : t -> int
(** Every request offered, refused or not. *)

val done_fast : t -> int
val done_degraded : t -> int

val done_quantized : t -> int
(** Responses served by a reduced-precision fast path; the report line
    naming it appears only when nonzero. *)

val timeout : t -> int
(** Queue-side timeouts: requests whose deadline expired before they
    ran. In-flight cancellations are {!cancelled_midrun}. *)

val shed : t -> int
val throttled : t -> int

val cancelled_midrun : t -> int
val watchdog_fired : t -> int
val mem_shed : t -> int
val respawns : t -> int
val slack_samples : t -> int

val answered : t -> int
(** [done_fast + done_degraded + timeout + shed + throttled +
    cancelled_midrun]. *)

val batches : t -> int
(** Batches dispatched (fast attempts and degraded runs count once). *)

val fast_failures : t -> int
val retries : t -> int
val degraded_batches : t -> int

val percentile : t -> float -> float
(** [percentile t p] of recorded Done latencies, [p] in [0, 100], with
    linear interpolation between order statistics (rank
    [p/100 * (n-1)]); 0.0 when none recorded. Raises [Invalid_argument]
    for [p] outside [0, 100]. *)

val mean_latency : t -> float

val report : t -> string
(** Multi-line human-readable summary: counts, latency percentiles
    (p50/p95/p99/p99.9). Cancellation/respawn/memory-pressure lines
    appear only when those events occurred, so healthy-run transcripts
    are unchanged. *)

val slack_report : t -> string option
(** One-line deadline-slack distribution (actual/predicted run-time
    ratios: p50/p95/max and overrun count); [None] when no slack samples
    were recorded. Kept separate from {!report} so pinned transcripts do
    not change. *)
