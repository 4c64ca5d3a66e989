(* Storage precisions as a GADT over Bigarray kinds (the ocannl idiom):
   each constructor pins both the OCaml element type and the Bigarray
   element representation, so a packed tensor can be opened with a
   single match and accessed at its native width.

   f16 is stored as IEEE-754 binary16 bit patterns in an
   int16_unsigned Bigarray (OCaml has no native half type); int8 is
   stored as signed bytes under a symmetric affine code
   [real = scale * (q - zero_point)]. Accumulation stays wide: f32 for
   float storage, the native int (>= 32 bits) for int8. *)

type ('a, 'b) kind =
  | F64 : (float, Bigarray.float64_elt) kind
  | F32 : (float, Bigarray.float32_elt) kind
  | F16 : (int, Bigarray.int16_unsigned_elt) kind
  | I8 : (int, Bigarray.int8_signed_elt) kind

type any = Any : (_, _) kind -> any

let name : type a b. (a, b) kind -> string = function
  | F64 -> "f64"
  | F32 -> "f32"
  | F16 -> "f16"
  | I8 -> "int8"

let any_name (Any k) = name k

let bytes_per_element : type a b. (a, b) kind -> int = function
  | F64 -> 8
  | F32 -> 4
  | F16 -> 2
  | I8 -> 1

let any_bytes (Any k) = bytes_per_element k

let bigarray_kind : type a b. (a, b) kind -> (a, b) Bigarray.kind = function
  | F64 -> Bigarray.float64
  | F32 -> Bigarray.float32
  | F16 -> Bigarray.int16_unsigned
  | I8 -> Bigarray.int8_signed

(* The accumulation type paired with each storage: integer storage
   accumulates in (at least) 32-bit integers, float storage in f32. *)
type accum = Acc_f32 | Acc_i32

let accum_of : type a b. (a, b) kind -> accum = function
  | F64 -> Acc_f32
  | F32 -> Acc_f32
  | F16 -> Acc_f32
  | I8 -> Acc_i32

let accum_name = function Acc_f32 -> "f32" | Acc_i32 -> "i32"

(* ------------------------------------------------------------------ *)
(* Quantization parameters                                             *)
(* ------------------------------------------------------------------ *)

(* Symmetric by construction everywhere in this codebase (zero_point is
   kept for generality; the codec and Qblas honour it). A buffer's
   qparams are the identity for float storage. *)
type qparams = { scale : float; zero_point : int }

let qid = { scale = 1.0; zero_point = 0 }

let qparams_of_absmax absmax =
  (* 127 levels on each side; guard against an all-zero buffer. *)
  let a = Float.max absmax 1e-8 in
  { scale = a /. 127.0; zero_point = 0 }

(* Saturate in float, before converting: [int_of_float] is unspecified
   for infinities, NaN and values beyond the int range (x86-64 returns
   0), which would store a max-pool's [-inf] initializer as code 0. *)
let quantize qp v =
  let q = Float.round (v /. qp.scale) +. float_of_int qp.zero_point in
  if q >= -128.0 && q <= 127.0 then int_of_float q
  else if q > 127.0 then 127
  else if q < -128.0 then -128
  else qp.zero_point (* NaN *)

let dequantize qp q = qp.scale *. float_of_int (q - qp.zero_point)

(* ------------------------------------------------------------------ *)
(* binary16 encode/decode                                              *)
(* ------------------------------------------------------------------ *)

let f16_decode_bits bits =
  let sign = if bits land 0x8000 <> 0 then -1.0 else 1.0 in
  let e = (bits lsr 10) land 0x1f in
  let m = bits land 0x3ff in
  if e = 0 then sign *. (float_of_int m *. 0x1p-24)
  else if e = 31 then if m = 0 then sign *. infinity else Float.nan
  else sign *. ((1.0 +. (float_of_int m *. 0x1p-10)) *. (2.0 ** float_of_int (e - 15)))

(* 65536-entry decode table (512 KB), built on first use: f16 loads
   become one int load plus one array read. The first use may come from
   several domains at once (Qblas.gemm_mixed builds its readers inside
   parallel workers), where a [lazy] would raise
   [CamlinternalLazy.Undefined]; racing domains here each build the
   same table and either copy is kept. *)
let f16_cell : float array option Atomic.t = Atomic.make None

let f16_table () =
  match Atomic.get f16_cell with
  | Some t -> t
  | None ->
      let t = Array.init 65536 f16_decode_bits in
      Atomic.set f16_cell (Some t);
      t

let f16_decode bits = (f16_table ()).(bits land 0xffff)

let f16_encode v =
  if Float.is_nan v then 0x7e00
  else begin
    let sign_bit = Int32.to_int (Int32.shift_right_logical (Int32.bits_of_float v) 31) in
    let sign = sign_bit lsl 15 in
    let av = Float.abs v in
    if av = 0.0 then sign
    else if av >= 65520.0 then sign lor 0x7c00 (* overflow -> inf *)
    else begin
      let b = Int32.to_int (Int32.logand (Int32.bits_of_float av) 0x7fffffffl) in
      let e = (b lsr 23) - 127 in
      let m = b land 0x7fffff in
      if e >= -14 then begin
        (* Normal half: round mantissa to 10 bits, round-half-to-even.
           A mantissa carry propagates into the exponent correctly
           (1.999 -> 2.0), and the overflow guard above keeps us short
           of infinity. *)
        let rem = m land 0x1fff in
        let m10 = m lsr 13 in
        let rounded =
          if rem > 0x1000 || (rem = 0x1000 && m10 land 1 = 1) then m10 + 1
          else m10
        in
        sign lor (((e + 15) lsl 10) + rounded)
      end
      else if e >= -25 then begin
        (* Subnormal half: value * 2^24 rounded to an integer. *)
        let shift = -14 - e in
        let rem_bits = 13 + shift in
        let m13 = (0x800000 lor m) lsr rem_bits in
        let rem = (0x800000 lor m) land ((1 lsl rem_bits) - 1) in
        let half = 1 lsl (rem_bits - 1) in
        let rounded =
          if rem > half || (rem = half && m13 land 1 = 1) then m13 + 1 else m13
        in
        sign lor rounded
      end
      else sign (* underflow to zero *)
    end
  end

let f16_of_float = f16_encode
let float_of_f16 = f16_decode

(* ------------------------------------------------------------------ *)
(* Presets                                                             *)
(* ------------------------------------------------------------------ *)

(* The user-facing precision modes: [`F32] is the default everything-
   float pipeline; [`F16] stores activations as binary16 with f32
   accumulation; [`I8] is the post-training-quantized serving preset
   (int8 storage, int32 accumulation, calibrated scales). *)
type preset = [ `F32 | `F16 | `I8 ]

let preset_to_string = function `F32 -> "f32" | `F16 -> "f16" | `I8 -> "int8"

let preset_of_string = function
  | "f32" | "fp32" | "float32" -> Some `F32
  | "f16" | "fp16" | "float16" | "half" -> Some `F16
  | "int8" | "i8" | "q8" -> Some `I8
  | _ -> None

let preset_names = [ "f32"; "f16"; "int8" ]

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
