(* Storage precisions as a GADT over Bigarray kinds (the ocannl idiom):
   each constructor pins both the OCaml element type and the Bigarray
   element representation, so a packed tensor can be opened with a
   single match and accessed at its native width.

   int8 is stored as signed bytes under a symmetric code
   [real = scale * q]. Accumulation stays wide: f32 for
   float storage, the native int (>= 32 bits) for int8. *)

type ('a, 'b) kind =
  | F32 : (float, Bigarray.float32_elt) kind
  | I8 : (int, Bigarray.int8_signed_elt) kind

type any = Any : (_, _) kind -> any

let name : type a b. (a, b) kind -> string = function
  | F32 -> "f32"
  | I8 -> "int8"

let any_name (Any k) = name k

let bytes_per_element : type a b. (a, b) kind -> int = function
  | F32 -> 4
  | I8 -> 1

let any_bytes (Any k) = bytes_per_element k

let bigarray_kind : type a b. (a, b) kind -> (a, b) Bigarray.kind = function
  | F32 -> Bigarray.float32
  | I8 -> Bigarray.int8_signed

(* ------------------------------------------------------------------ *)
(* Quantization parameters                                             *)
(* ------------------------------------------------------------------ *)

(* A buffer's qparams are the identity for float storage. *)
type qparams = { scale : float }

let qid = { scale = 1.0 }

let qparams_of_absmax absmax =
  if not (Float.is_finite absmax) then
    invalid_arg
      (Printf.sprintf "Precision.qparams_of_absmax: non-finite absmax %g" absmax);
  (* 127 levels on each side; guard against an all-zero buffer. *)
  let a = Float.max absmax 1e-8 in
  { scale = a /. 127.0 }

(* Saturate in float, before converting: [int_of_float] is unspecified
   for infinities, NaN and values beyond the int range (x86-64 returns
   0), which would store a max-pool's [-inf] initializer as code 0. *)
let quantize qp v =
  let q = Float.round (v /. qp.scale) in
  if q >= -128.0 && q <= 127.0 then int_of_float q
  else if q > 127.0 then 127
  else if q < -128.0 then -128
  else 0 (* NaN *)

let dequantize qp q = qp.scale *. float_of_int q

(* ------------------------------------------------------------------ *)
(* Presets                                                             *)
(* ------------------------------------------------------------------ *)

(* The user-facing precision modes: [`F32] is the default everything-
   float pipeline; [`I8] is the post-training-quantized serving preset
   (int8 storage, int32 accumulation, calibrated scales). *)
type preset = [ `F32 | `I8 ]

let preset_to_string = function `F32 -> "f32" | `I8 -> "int8"

let preset_of_string = function
  | "f32" | "fp32" | "float32" -> Some `F32
  | "int8" | "i8" | "q8" -> Some `I8
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Observed dynamic ranges (calibration input)                         *)
(* ------------------------------------------------------------------ *)

type range = { mutable lo : float; mutable hi : float; mutable seen : int }

let range_empty () = { lo = infinity; hi = neg_infinity; seen = 0 }

let range_update r v =
  if v < r.lo then r.lo <- v;
  if v > r.hi then r.hi <- v;
  r.seen <- r.seen + 1

let range_absmax r =
  if r.seen = 0 then 0.0 else Float.max (Float.abs r.lo) (Float.abs r.hi)
