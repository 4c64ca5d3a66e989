(** Storage precisions as a GADT over [Bigarray] kinds.

    Each constructor pins both the OCaml element type ['a] and the
    Bigarray representation ['b], so a packed tensor can be opened with
    one match and accessed at its native width. f16 is stored as IEEE
    binary16 bit patterns in [int16_unsigned] cells; int8 as signed
    bytes under a symmetric code [real = scale * (q - zero_point)].
    Accumulation is always wide: f32 for float storage, native int
    (>= 32 bits, standing in for int32) for int8 storage. *)

type ('a, 'b) kind =
  | F64 : (float, Bigarray.float64_elt) kind
  | F32 : (float, Bigarray.float32_elt) kind
  | F16 : (int, Bigarray.int16_unsigned_elt) kind
  | I8 : (int, Bigarray.int8_signed_elt) kind

type any = Any : (_, _) kind -> any  (** Existentially packed kind. *)

val name : ('a, 'b) kind -> string
(** ["f64"], ["f32"], ["f16"], ["int8"]. *)

val any_name : any -> string
val bytes_per_element : ('a, 'b) kind -> int
val any_bytes : any -> int
val bigarray_kind : ('a, 'b) kind -> ('a, 'b) Bigarray.kind

type accum = Acc_f32 | Acc_i32
(** Accumulation width paired with a storage kind. *)

val accum_of : ('a, 'b) kind -> accum
val accum_name : accum -> string

(** {1 Quantization parameters} *)

type qparams = { scale : float; zero_point : int }
(** Affine code for integer storage; the identity ({!qid}) for float
    storage. This codebase always calibrates symmetrically
    ([zero_point = 0]); the field exists so asymmetric codes type-check,
    and the codec and [Qblas] honour it. *)

val qid : qparams
(** [{ scale = 1.0; zero_point = 0 }]. *)

val qparams_of_absmax : float -> qparams
(** Symmetric int8 code covering [[-absmax, absmax]]:
    [scale = max absmax 1e-8 / 127], [zero_point = 0]. *)

val quantize : qparams -> float -> int
(** Round-to-nearest then saturate to [[-128, 127]]: values past either
    end, the infinities included, encode as that end's code (so a
    max-pool's [-inf] initializer is [-128]), and NaN encodes as
    [zero_point]. The clamp happens in float, before the conversion, so
    the result does not depend on the platform's [int_of_float]. For
    values inside the calibrated range,
    [|dequantize qp (quantize qp v) - v| <= scale/2]. *)

val dequantize : qparams -> int -> float

(** {1 binary16 conversion} *)

val f16_encode : float -> int
(** Round-to-nearest-even binary16 bits (0..0xffff); overflow saturates
    to infinity, NaN maps to a quiet NaN pattern. *)

val f16_table : unit -> float array
(** The decode table: entry [b] is the value of bit pattern [b]
    (0..0xffff). Built on first use; safe to call from several domains
    at once. *)

val f16_decode : int -> float
(** Table-driven decode ([(f16_table ()).(bits land 0xffff)]). *)

val f16_of_float : float -> int
val float_of_f16 : int -> float

(** {1 User-facing presets} *)

type preset = [ `F32 | `F16 | `I8 ]

val preset_to_string : preset -> string
val preset_of_string : string -> preset option
val preset_names : string list

(** {1 Observed dynamic ranges (calibration input)} *)

type range = { mutable lo : float; mutable hi : float; mutable seen : int }

val range_empty : unit -> range
val range_update : range -> float -> unit
val range_absmax : range -> float
(** 0 when nothing was observed. *)
