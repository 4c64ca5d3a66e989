(** The Caffe-like baseline: a static layer-specific library (§7,
    "Caffe (C++/MKL)").

    Each layer type has a fixed, separately-executed kernel — im2col +
    GEMM convolution, whole-batch GEMM fully-connected layers, direct
    loops for activations and pooling — with no cross-layer
    optimization, exactly the execution model the paper compares
    against. It shares the GEMM kernels with Latte (as Caffe shares MKL
    with the paper's Latte), so measured gaps isolate the compiler
    optimizations.

    The engine interprets the same {!Net.t} the Latte compiler consumes
    and can copy parameters from a compiled Latte program, letting the
    test suite check bit-level agreement of the two systems. *)

type t

val of_net : ?params_from:Executor.t -> Net.t -> t
(** Build the layer pipeline. With [params_from], weights and biases are
    copied out of the compiled Latte program's buffers. *)

val batch_size : t -> int

val lookup : t -> string -> Tensor.t
(** Buffers use the same names as the Latte runtime (["E.value"],
    ["label"], ...). *)

val forward : t -> unit
val backward : t -> unit

val forward_timed : t -> (string * float) list
(** Per-layer (ensemble label, seconds). *)

val backward_timed : t -> (string * float) list
