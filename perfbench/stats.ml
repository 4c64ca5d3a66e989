let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between order statistics at rank p/100 * (n-1),
   the rule [Serve_metrics.percentile] uses. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted a in
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((r -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median a = percentile a 50.0

let mean a =
  let n = Array.length a in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

(* Percentiles a tail may be reported at, highest first. *)
let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* The highest percentile of [ladder] with at least [beyond] samples
   above it among [n] (p99 needs 1000, p95 200, p75 40), and [n]
   itself; [None] when even the median lacks them. *)
let tail_percentile ?(beyond = 10) n =
  let fits p =
    (* n * (100 - p) / 100 >= beyond, in tenths of a percent *)
    n * (1000 - int_of_float (Float.round (p *. 10.0))) >= beyond * 1000
  in
  Option.map (fun p -> (p, n)) (List.find_opt fits ladder)

let percentile_name p = Printf.sprintf "p%g" p
