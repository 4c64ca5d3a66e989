(** Named tensor buffers for a compiled network.

    The compiler plans buffers (§5.3: "the runtime has allocated a
    buffer for the input values of each neuron"); this pool realizes the
    plan. Aliases implement the shared-buffer optimizations: an
    ActivationEnsemble's value buffer aliasing its source, or a
    fully-connected layer's input vector aliasing the flattened source
    values.

    Every buffer carries a storage precision ({!Tensor.store}). The
    default pipeline allocates f32 and the classic {!lookup}/{!alloc}
    API is unchanged for it; quantized executions repack selected
    physical blocks to int8 ({!repack}) and access them through
    {!store}. *)

type t

val create : unit -> t

val alloc : t -> string -> Shape.t -> Tensor.t
(** Allocate a zero-filled f32 buffer. Raises on duplicates. *)

val adopt : t -> string -> Tensor.t -> unit
(** Register an externally created f32 tensor under [name]. *)

val alias : t -> string -> target:string -> shape:Shape.t -> Tensor.t
(** Register [name] as a reshaped view of [target]'s storage; element
    counts must agree. Raises [Failure] when the target is packed (the
    compiler only aliases f32 plans). *)

val lookup : t -> string -> Tensor.t
(** The f32 tensor under [name]. Raises [Failure] with the buffer name
    when missing, or when the buffer is packed at another precision
    (use {!store}). *)

val store : t -> string -> Tensor.store
(** Precision-agnostic lookup; never fails on a registered name. *)

val mem : t -> string -> bool

val is_f32 : t -> string -> bool

val precision : t -> string -> Precision.any
val qparams : t -> string -> Precision.qparams
val elem_bytes : t -> string -> int
val shape : t -> string -> Shape.t

val read_f32 : t -> string -> Tensor.t
(** Decoded copy of any buffer (the f32 contents for f32 buffers). *)

val names : t -> string list
(** All registered names, allocation order. *)

val physical : t -> string -> string
(** Follow alias links to the owning allocation. *)

val total_bytes : t -> int
(** Bytes of real storage at declared widths (aliases not
    double-counted). *)

val repack : t -> string -> qparams:Precision.qparams -> unit
(** Re-register [name]'s physical block (and every alias of it) at
    int8 under [qparams], re-encoding the current f32 contents. Raises
    [Failure] when already packed. *)

(** {1 Process-level memory ledger}

    A single process-wide account of live tensor storage, used by the
    serving registry for memory-pressure-aware admission: pools opt in
    with {!track}, non-pool allocation (and injected alloc-spike faults)
    is charged with {!charge_external}, and admission compares
    {!live_bytes} + the projected footprint against {!budget}, evicting
    or shedding instead of over-allocating. *)

val track : t -> unit
(** Count this pool's {!total_bytes} in {!live_bytes} until
    {!release}d. Idempotent. *)

val release : t -> unit
(** Stop counting this pool (e.g. on LRU eviction). Idempotent. *)

val charge_external : int -> unit
(** Add [bytes] (may be negative to credit back; the balance clamps at
    0) of non-pool allocation to the ledger. *)

val live_bytes : unit -> int
(** External bytes + the {!total_bytes} of every tracked pool. *)

val set_budget : int option -> unit
(** Set or clear the process memory budget in bytes. Raises
    [Invalid_argument] on a non-positive budget. *)

val budget : unit -> int option
