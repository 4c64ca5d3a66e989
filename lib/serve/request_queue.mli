(** Bounded FIFO request queue — the serving runtime's admission point.

    The capacity is the load-shedding high-water mark: {!offer} refuses
    new items once the queue is full, and the fleet answers those
    requests [Shed] instead of letting latency grow without bound. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity <= 0]. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool

val offer : 'a t -> 'a -> bool
(** Enqueue at the tail; [false] (and no mutation) when full. *)

val pop : 'a t -> 'a option
(** Dequeue from the head. *)

val peek : 'a t -> 'a option

val to_list : 'a t -> 'a list
(** Head-first snapshot, for inspection. *)

val reject : 'a t -> ('a -> bool) -> 'a list
(** Remove and return (head-first) every queued item satisfying the
    predicate, preserving the order of the rest — how deadline-expired
    requests are cleared from per-tenant queues at batch formation. *)
