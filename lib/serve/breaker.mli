(** Circuit breaker guarding the optimized (fast) execution path.

    State machine:

    - [`Closed] — the fast path serves traffic; consecutive batch
      failures are counted, and reaching [threshold] opens the breaker.
    - [`Open] — the fast path is not trusted; every batch degrades to
      the reference executor until [cooldown] simulated seconds have
      passed since opening, at which point the next {!allow_fast} query
      half-opens the breaker.
    - [`Half_open] — a single probe batch is let onto the fast path:
      success closes the breaker, failure re-opens it (restarting the
      cooldown).

    Transitions are recorded with their simulated timestamp and reason
    so serving reports can show the full Closed → Open → Half_open →
    Closed history. The state is a polymorphic variant so observers
    (serve-sim / fleet-sim transition logs, the fleet's rollback
    trigger) can match on it without depending on this module's
    constructors. *)

type state = [ `Closed | `Open | `Half_open ]

val state_name : state -> string

type transition = {
  at : float;  (** Simulated time of the transition. *)
  from_state : state;
  to_state : state;
  reason : string;
}

type t

val create : ?threshold:int -> ?cooldown:float -> unit -> t
(** [threshold] (default 1) is the consecutive-failure count that opens
    the breaker; [cooldown] (default 5e-3) the simulated seconds spent
    [`Open] before half-opening. Raises [Invalid_argument] when
    [threshold <= 0] or [cooldown < 0]. *)

val state : t -> state
val to_string : t -> string
(** The current state's name — what serving logs print. *)

val threshold : t -> int

val allow_fast : t -> now:float -> bool
(** May the next batch try the fast path? [`Closed] and [`Half_open]
    answer yes. [`Open] answers no until the cooldown has elapsed, in
    which case the breaker transitions to [`Half_open] (recording it)
    and answers yes — the caller's batch is the probe. *)

val on_success : t -> now:float -> unit
(** A fast-path batch succeeded: resets the failure streak; a
    [`Half_open] probe success closes the breaker. *)

val on_failure : t -> now:float -> reason:string -> unit
(** A fast-path batch failed: bumps the streak and opens the breaker
    when the streak reaches the threshold; a [`Half_open] probe failure
    re-opens immediately. *)

val transitions : t -> transition list
(** All transitions so far, in chronological order. *)

val transition_to_string : transition -> string
