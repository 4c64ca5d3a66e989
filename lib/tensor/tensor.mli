(** Dense tensors backed by [Bigarray].

    The data buffer is a flat, C-layout [Bigarray.Array1]; [shape] gives
    its logical n-dimensional extents in row-major order. Views created
    by {!reshape} and {!sub_left} share storage with their parent.

    The representation is polymorphic in the storage precision
    ({!Precision.kind}): ['a] is the OCaml element type, ['b] the
    Bigarray representation. {!t} pins the default f32 case — the type
    the numeric API below operates on — while {!store} packs a tensor
    of any precision together with its kind and quantization
    parameters. *)

type ('a, 'b) gen = private {
  data : ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t;
  shape : Shape.t;
}

type buffer =
  (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = (float, Bigarray.float32_elt) gen

external buffer_get : buffer -> int -> float = "%caml_ba_unsafe_ref_1"
(** The typed f32 load every kernel binds. Each call site compiles to an
    inline load, with the same float32 widening as
    [Bigarray.Array1.get] but {b no bounds check}: the caller keeps
    every index in [\[0, dim)]. On the compiled path that is an
    [Ir_bounds] proof or a runtime guard; in [Ir_eval] it is the GEMM
    span check. A Bigarray primitive applied where the element kind is
    not known compiles to the generic [caml_ba_get_1] C call instead,
    so kernels bind this rather than [Bigarray.Array1.unsafe_get]. *)

external buffer_set : buffer -> int -> float -> unit = "%caml_ba_unsafe_set_1"
(** The store twin of {!buffer_get}: an inline store that rounds to
    float32 and never checks bounds. *)

type buffer_i8 =
  (int, Bigarray.int8_signed_elt, Bigarray.c_layout) Bigarray.Array1.t

external buffer_get_i8 : buffer_i8 -> int -> int = "%caml_ba_unsafe_ref_1"
(** The int8 pair: an inline, unchecked load of one signed code, as
    {!buffer_get} is for f32. [Qblas]'s integer GEMMs and [Ir_compile]'s
    int8 loops bind it. *)

external buffer_set_i8 : buffer_i8 -> int -> int -> unit
  = "%caml_ba_unsafe_set_1"
(** The store twin of {!buffer_get_i8}: an inline, unchecked store of a
    code in [\[-128, 127\]]. *)

val create : Shape.t -> t
(** Zero-initialized tensor. *)

val of_buffer : buffer -> Shape.t -> t
(** Wrap an existing buffer; raises [Invalid_argument] if sizes disagree. *)

val scalar : float -> t

val of_array : Shape.t -> float array -> t

val to_array : t -> float array

val shape : t -> Shape.t
val numel : t -> int
val data : t -> buffer

val get : t -> int array -> float
val set : t -> int array -> float -> unit

val get1 : t -> int -> float
(** Flat access with bounds checking. *)

val set1 : t -> int -> float -> unit

val unsafe_get : t -> int -> float
(** Flat access without a bounds check (see {!buffer_get}): the caller
    keeps [i] in [\[0, numel t)]. A call from another module is an
    out-of-line call; hot loops bind {!buffer_get} on {!data} instead. *)

val unsafe_set : t -> int -> float -> unit
(** The unchecked store twin of {!unsafe_get}. *)

val fill : t -> float -> unit
val copy : t -> t
val blit : src:t -> dst:t -> unit

val reshape : t -> Shape.t -> t
(** Shares storage; element count must match. *)

val sub_left : t -> int -> t
(** [sub_left t i] is the [i]-th slice along dimension 0, as a view. *)

val init : Shape.t -> (int array -> float) -> t

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t

val iteri : (int -> float -> unit) -> t -> unit

val add_inplace : t -> t -> unit
(** [add_inplace dst src] accumulates [src] into [dst] elementwise. *)

val scale_inplace : t -> float -> unit

val axpy : alpha:float -> x:t -> y:t -> unit
(** y := alpha * x + y. *)

val sum : t -> float
val max_value : t -> float
val argmax : t -> int
(** Flat index of the maximum element; first occurrence wins. *)

val dot : t -> t -> float

val l2_norm : t -> float

val approx_equal : ?tol:float -> t -> t -> bool
(** Elementwise comparison with mixed absolute/relative tolerance; shapes
    must be equal. *)

val max_abs_diff : t -> t -> float

val fill_uniform : Rng.t -> t -> lo:float -> hi:float -> unit
val fill_gaussian : Rng.t -> t -> mean:float -> sigma:float -> unit
val fill_xavier : Rng.t -> t -> fan_in:int -> fan_out:int -> unit

(** {1 Packed stores}

    A [store] is a tensor of {e any} storage precision, packed with its
    kind and quantization parameters. Integer-coded stores decode to
    floats through their {!Precision.qparams}; f32 stores expose their
    raw buffer via {!store_f32_data} so hot paths can keep the
    untyped-float fast path. *)

type store =
  | Store : ('a, 'b) Precision.kind * Precision.qparams * ('a, 'b) gen -> store

val store_of_f32 : t -> store
(** Wrap without copying ([F32], identity qparams). *)

val store_create : ?qparams:Precision.qparams -> Precision.any -> Shape.t -> store
(** Fresh store of zeros: an int8 one holds code 0, which is 0.0 under
    every {!Precision.qparams}. [qparams] defaults to {!Precision.qid}
    and is ignored by [F32]. *)

val store_shape : store -> Shape.t
val store_numel : store -> int
val store_kind : store -> Precision.any
val store_qparams : store -> Precision.qparams
val store_elem_bytes : store -> int
val store_bytes : store -> int

val store_f32_data : store -> buffer option
(** [Some] exactly when the store is f32 — the raw buffer, no copy. *)

val store_f32_opt : store -> t option

val store_data_id : store -> Obj.t
(** Identity of the backing storage block: two stores alias iff their
    ids are physically equal. *)

val store_reader : store -> int -> float
(** Unsafe flat read, decoded to float; partial application specializes
    the decode once per store. *)

val store_writer : store -> int -> float -> unit
(** Unsafe flat write, encoding the float (round-to-nearest, clamped
    for int8). *)

val store_get1 : store -> int -> float
(** Bounds-checked {!store_reader}. *)

val store_set1 : store -> int -> float -> unit

val store_fill : store -> float -> unit
(** Fill with the encoded value. *)

val store_reshape : store -> Shape.t -> store
(** Shares storage; element count must match. *)

val store_to_f32 : store -> t
(** Decoded copy. *)

val store_blit_from_f32 : src:t -> dst:store -> unit
(** Encode [src] elementwise into [dst]; shapes must match. *)

val store_absmax : store -> float
(** Max absolute finite decoded value (0 for a store with none): NaN
    and the infinities are skipped, so int8 calibration over a batch
    that holds an infinity still gives a finite scale, and the
    infinity saturates at encode like any value past the range. *)
