(** The Mocha.jl-like baseline (§7.1.3): a high-level-language framework
    with per-element bounds-checked accesses, allocation-heavy
    multi-dimensional indexing, naive (unblocked) matrix multiplication
    and no parallelization or tiling — the execution profile the paper
    attributes to Mocha's Julia code paths.

    Shares the layer vocabulary and buffer naming of {!Caffe_like}, so
    all three systems are numerically comparable. *)

type t

val of_net : ?params_from:Executor.t -> Net.t -> t
val batch_size : t -> int
val lookup : t -> string -> Tensor.t
val forward : t -> unit
val backward : t -> unit
