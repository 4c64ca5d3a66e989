(** Storage precisions as a GADT over [Bigarray] kinds.

    Each constructor pins both the OCaml element type ['a] and the
    Bigarray representation ['b], so a packed tensor can be opened with
    one match and accessed at its native width. int8 is stored as
    signed bytes under a symmetric code [real = scale * q].
    Accumulation is always wide: f32 for float storage, native int
    (>= 32 bits, standing in for int32) for int8 storage. *)

type ('a, 'b) kind =
  | F32 : (float, Bigarray.float32_elt) kind
  | I8 : (int, Bigarray.int8_signed_elt) kind

type any = Any : (_, _) kind -> any  (** Existentially packed kind. *)

val name : ('a, 'b) kind -> string
(** ["f32"], ["int8"]. *)

val any_name : any -> string
val bytes_per_element : ('a, 'b) kind -> int
val any_bytes : any -> int
val bigarray_kind : ('a, 'b) kind -> ('a, 'b) Bigarray.kind

(** {1 Quantization parameters} *)

type qparams = { scale : float }
(** The symmetric code of integer storage, [real = scale * q]; the
    identity ({!qid}) for float storage. *)

val qid : qparams
(** [{ scale = 1.0 }]. *)

val qparams_of_absmax : float -> qparams
(** The int8 code covering [[-absmax, absmax]]:
    [scale = max absmax 1e-8 / 127]. Raises [Invalid_argument] when
    [absmax] is NaN or infinite: an infinite scale would decode every
    code as NaN or an infinity. *)

val quantize : qparams -> float -> int
(** Round-to-nearest then saturate to [[-128, 127]]: values past either
    end, the infinities included, encode as that end's code (so a
    max-pool's [-inf] initializer is [-128]), and NaN encodes as
    0. The clamp happens in float, before the conversion, so
    the result does not depend on the platform's [int_of_float]. For
    values inside the calibrated range,
    [|dequantize qp (quantize qp v) - v| <= scale/2]. [Ir_compile]'s
    int8 loops write this rule out inline; a test pins the two
    together. *)

val dequantize : qparams -> int -> float

(** {1 User-facing presets} *)

type preset = [ `F32 | `I8 ]

val preset_to_string : preset -> string
val preset_of_string : string -> preset option

(** {1 Observed dynamic ranges (calibration input)} *)

type range = { mutable lo : float; mutable hi : float; mutable seen : int }

val range_empty : unit -> range
val range_update : range -> float -> unit
val range_absmax : range -> float
(** 0 when nothing was observed. *)
