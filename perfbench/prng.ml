(* SplitMix64. The benchmark draws every input (images, labels, arrival
   times, features, tenants, models, check samples) from this generator
   rather than the program's own [Rng], [Synthetic] or [Load_gen], so a
   change to those modules cannot change the workload. *)

type t = { mutable s : int64 }

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next t =
  t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
  mix t.s

(* Independent streams: [create seed ~stream] for each kind of input, so
   that drawing more of one kind never shifts another. *)
let create ?(stream = 0) seed =
  { s = mix (Int64.add (mix (Int64.of_int seed)) (Int64.of_int stream)) }

let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53
let int t n = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int n))
let exponential t ~rate = -.Float.log1p (-.float t) /. rate
