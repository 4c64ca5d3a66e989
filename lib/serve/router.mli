(** Multi-tenant admission control and weighted-fair scheduling.

    Each tenant owns a token bucket ([rate] tokens per simulated second,
    capacity [burst]) and a bounded FIFO queue of [queue_cap] requests —
    admission refuses with [`Throttled] when the bucket is empty and
    [`Shed] when the queue is full, so one tenant's burst exhausts {e
    its own} bucket and queue and cannot shed another tenant's traffic.

    Dispatch is start-time weighted fair queuing over the tenants'
    normalized service (work served divided by [weight]): the busy
    tenant with the smallest normalized service goes first, its head
    request's model names the batch, and the remaining slots are filled
    by the same rule restricted to heads for that model. A tenant waking
    from idle is advanced to the current system virtual time, so
    idleness is not bankable credit. *)

type tenant = {
  name : string;
  weight : float;  (** Fair-share weight (> 0). *)
  rate : float;  (** Token refill per simulated second (> 0). *)
  burst : float;  (** Token bucket capacity (>= 1). *)
  queue_cap : int;  (** Per-tenant bounded queue high-water mark. *)
  deadline : float;
      (** Default relative deadline (seconds) the fleet applies to this
          tenant's requests. *)
}

type request = {
  id : int;
  tenant : string;
  model : string;
  features : float array;
  arrival : float;
  deadline : float;  (** Absolute, on the simulated clock. *)
}

type t

val create : tenant list -> t
(** Raises [Invalid_argument] on an empty list, duplicate names, or
    non-positive weight/rate, or burst < 1. *)

val tenant_names : t -> string list
val tenant : t -> string -> tenant
(** Raises [Invalid_argument] for an unknown tenant (so does every
    function below taking a tenant name). *)

val admit : t -> now:float -> request -> [ `Admitted | `Throttled | `Shed ]
(** Refill the tenant's bucket to [now], then: no token — [`Throttled];
    queue full — [`Shed]; otherwise the request is queued (consuming one
    token). *)

val expire : t -> now:float -> request list
(** Remove and return every queued request whose deadline has passed —
    called by {!Fleet.pump} at batch-formation time. *)

val select : t -> batch_of:(string -> int) -> (string * request list) option
(** Form one batch: weighted-fair pick of the next model and up to
    [batch_of model] requests for it (possibly from several tenants).
    [None] when every queue is empty. Dequeued requests charge
    [1/weight] to their tenant's normalized service. *)

val queue_length : t -> string -> int
val total_queued : t -> int
val tokens : t -> string -> float
(** Current bucket level (as of the last refill). *)

val oldest_wait : t -> now:float -> float option
(** Longest head-of-line wait across tenants, if any request is queued. *)

val norm : t -> string -> float
(** The tenant's normalized service so far (for tests and reports). *)
