(** Open-loop synthetic load generator for one tenant and model of a
    {!Fleet}.

    Arrivals are a seeded Poisson process (exponential inter-arrival
    times at [rate] requests per simulated second) with uniform random
    feature vectors — open-loop, so arrivals keep coming at the armed
    rate no matter how far the fleet falls behind, which is what makes
    shedding and deadline expiry reachable. The event loop advances the
    fleet's simulated clock between arrivals and dispatches a batch
    when it is full, when the head-of-line request has waited
    [max_wait], or when no arrivals remain.

    Every random draw comes from one explicit generator — [params.seed]
    by default, or the caller's own via [?rng] — so a run is fully
    reproduced by its seed (the CLI's [--seed]); the multi-tenant
    {!Scenario} suite reuses {!poisson_arrivals}/{!features} with the
    same guarantee. *)

type params = {
  n : int;  (** Total requests to generate. *)
  rate : float;  (** Mean arrivals per simulated second. *)
  deadline : float;  (** Relative per-request deadline, seconds. *)
  max_wait : float;  (** Batching window before dispatching short batches. *)
  seed : int;
}

val poisson_arrivals : Rng.t -> n:int -> rate:float -> from:float -> float array
(** [n] absolute arrival times of a Poisson process at [rate] starting
    at time [from], consuming [n] draws. Raises [Invalid_argument] for
    non-positive [n] or [rate]. *)

val features : Rng.t -> numel:int -> float array
(** One uniform [0, 1) feature vector of [numel] elements. *)

val run :
  ?rng:Rng.t -> Fleet.t -> tenant:string -> model:string -> params -> unit
(** Submit every generated request as [tenant] for [model], each with
    the absolute deadline [arrival + params.deadline], and pump the
    fleet until all are answered; after the run [Fleet.unanswered] is 0.
    [rng] (default [Rng.create params.seed]) supplies every draw.
    Raises [Invalid_argument] for non-positive [n] or [rate]. *)
