(* GEMM over packed stores: the quantized counterpart of {!Blas}.

   Fast kernels exist for the combinations the int8 serving preset
   actually produces — int8 x int8 (integer accumulation, one
   rescale per output), and weight-only int8 against f32 activations —
   with a decoded-closure fallback covering every other kind mix (int8
   activations against f32 weights, packed C). All kernels handle both
   transpose flags through row/column strides, so they accept exactly
   the calls {!Blas.gemm} does.

   op(A) is m x k and op(B) is k x n as in {!Blas}; [transa] means A is
   stored k x m. C is always m x n at [off_c]. *)

let ug = Tensor.buffer_get
let us = Tensor.buffer_set
let ug8 = Tensor.buffer_get_i8

(* Strides of op(A)[i,p]: (per-i, per-p). *)
let strides_a ~transa ~m ~k = if transa then (1, m) else (k, 1)

(* Strides of op(B)[p,j]: (per-p, per-j). *)
let strides_b ~transb ~n ~k = if transb then (1, k) else (n, 1)

let scale_c_f32 ~beta ~m ~n ~(c : Tensor.buffer) ~off_c =
  if beta = 0.0 then
    for i = off_c to off_c + (m * n) - 1 do
      us c i 0.0
    done
  else if beta <> 1.0 then
    for i = off_c to off_c + (m * n) - 1 do
      us c i (beta *. ug c i)
    done

let kernel_name a b c =
  match (a, b, c) with
  | Tensor.Store (Precision.F32, _, _), Tensor.Store (Precision.F32, _, _),
    Tensor.Store (Precision.F32, _, _) ->
      "gemm"
  | Tensor.Store (Precision.I8, _, _), Tensor.Store (Precision.I8, _, _),
    Tensor.Store (Precision.F32, _, _) ->
      "gemm_i8i8"
  | Tensor.Store (Precision.F32, _, _), Tensor.Store (Precision.I8, _, _),
    Tensor.Store (Precision.F32, _, _) ->
      "gemm_f32i8"
  | _ -> "gemm_mixed"

(* int8 x int8 -> f32: integer dot products (native int subsumes the
   int32 accumulator), one float rescale per C element. A 4x2 block of C
   keeps eight integer accumulators, as {!Blas}'s dot kernel does with
   doubles; integer sums are exact, so the blocking moves no bit and the
   m mod 4 and n mod 2 tails take one dot product each. *)
let gemm_i8i8 ~alpha ~transa ~transb ~m ~n ~k ~qa ~(a : Tensor.buffer_i8)
    ~off_a ~qb ~(b : Tensor.buffer_i8) ~off_b ~(c : Tensor.buffer) ~off_c =
  let as_i, as_p = strides_a ~transa ~m ~k in
  let bs_p, bs_j = strides_b ~transb ~n ~k in
  let rescale = alpha *. qa.Precision.scale *. qb.Precision.scale in
  let put i j acc =
    let ci = off_c + (i * n) + j in
    us c ci (ug c ci +. (rescale *. float_of_int acc))
  in
  let dot i j =
    let acc = ref 0 in
    let ia = ref (off_a + (i * as_i)) and ib = ref (off_b + (j * bs_j)) in
    for _ = 1 to k do
      acc := !acc + (ug8 a !ia * ug8 b !ib);
      ia := !ia + as_p;
      ib := !ib + bs_p
    done;
    !acc
  in
  let m4 = m - (m mod 4) and n2 = n - (n mod 2) in
  for i4 = 0 to (m4 / 4) - 1 do
    let i0 = 4 * i4 in
    for j2 = 0 to (n2 / 2) - 1 do
      let j0 = 2 * j2 in
      let c00 = ref 0 and c01 = ref 0 and c10 = ref 0 and c11 = ref 0 in
      let c20 = ref 0 and c21 = ref 0 and c30 = ref 0 and c31 = ref 0 in
      let ia = ref (off_a + (i0 * as_i)) and ib = ref (off_b + (j0 * bs_j)) in
      for _ = 1 to k do
        let b0 = ug8 b !ib and b1 = ug8 b (!ib + bs_j) in
        let a0 = ug8 a !ia and a1 = ug8 a (!ia + as_i) in
        c00 := !c00 + (a0 * b0);
        c01 := !c01 + (a0 * b1);
        c10 := !c10 + (a1 * b0);
        c11 := !c11 + (a1 * b1);
        let a2 = ug8 a (!ia + (2 * as_i)) and a3 = ug8 a (!ia + (3 * as_i)) in
        c20 := !c20 + (a2 * b0);
        c21 := !c21 + (a2 * b1);
        c30 := !c30 + (a3 * b0);
        c31 := !c31 + (a3 * b1);
        ia := !ia + as_p;
        ib := !ib + bs_p
      done;
      put i0 j0 !c00;
      put i0 (j0 + 1) !c01;
      put (i0 + 1) j0 !c10;
      put (i0 + 1) (j0 + 1) !c11;
      put (i0 + 2) j0 !c20;
      put (i0 + 2) (j0 + 1) !c21;
      put (i0 + 3) j0 !c30;
      put (i0 + 3) (j0 + 1) !c31
    done;
    if n2 < n then
      for i = i0 to i0 + 3 do
        put i n2 (dot i n2)
      done
  done;
  for i = m4 to m - 1 do
    for j = 0 to n - 1 do
      put i j (dot i j)
    done
  done

(* Weight-only int8: f32 activations against int8 weights (B). *)
let gemm_f32i8 ~alpha ~transa ~transb ~m ~n ~k ~(a : Tensor.buffer) ~off_a ~qb
    ~(b : Tensor.buffer_i8) ~off_b ~(c : Tensor.buffer) ~off_c =
  let as_i, as_p = strides_a ~transa ~m ~k in
  let bs_p, bs_j = strides_b ~transb ~n ~k in
  let rescale = alpha *. qb.Precision.scale in
  for i = 0 to m - 1 do
    let row_a = off_a + (i * as_i) in
    let row_c = off_c + (i * n) in
    for j = 0 to n - 1 do
      let col_b = off_b + (j * bs_j) in
      let acc = ref 0.0 in
      let ia = ref row_a and ib = ref col_b in
      let p = ref 0 in
      while !p + 3 < k do
        acc :=
          !acc
          +. (ug a !ia *. float_of_int (ug8 b !ib))
          +. (ug a (!ia + as_p) *. float_of_int (ug8 b (!ib + bs_p)))
          +. (ug a (!ia + (2 * as_p))
             *. float_of_int (ug8 b (!ib + (2 * bs_p))))
          +. (ug a (!ia + (3 * as_p))
             *. float_of_int (ug8 b (!ib + (3 * bs_p))));
        ia := !ia + (4 * as_p);
        ib := !ib + (4 * bs_p);
        p := !p + 4
      done;
      while !p < k do
        acc := !acc +. (ug a !ia *. float_of_int (ug8 b !ib));
        ia := !ia + as_p;
        ib := !ib + bs_p;
        incr p
      done;
      let ci = row_c + j in
      us c ci (ug c ci +. (rescale *. !acc))
    done
  done

(* Decoded fallback: any kind combination, including packed C. *)
let gemm_mixed ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~off_a ~b ~off_b ~c
    ~off_c =
  let ra = Tensor.store_reader a in
  let rb = Tensor.store_reader b in
  let rc = Tensor.store_reader c in
  let wc = Tensor.store_writer c in
  let as_i, as_p = strides_a ~transa ~m ~k in
  let bs_p, bs_j = strides_b ~transb ~n ~k in
  for i = 0 to m - 1 do
    let row_a = off_a + (i * as_i) in
    let row_c = off_c + (i * n) in
    for j = 0 to n - 1 do
      let col_b = off_b + (j * bs_j) in
      let acc = ref 0.0 in
      let ia = ref row_a and ib = ref col_b in
      for _p = 0 to k - 1 do
        acc := !acc +. (ra !ia *. rb !ib);
        ia := !ia + as_p;
        ib := !ib + bs_p
      done;
      let ci = row_c + j in
      let prev = if beta = 0.0 then 0.0 else beta *. rc ci in
      wc ci (prev +. (alpha *. !acc))
    done
  done

let gemm ?(alpha = 1.0) ?(beta = 1.0) ~transa ~transb ~m ~n ~k ~a ?(off_a = 0)
    ~b ?(off_b = 0) ~c ?(off_c = 0) () =
  match (a, b, c) with
  | Tensor.Store (Precision.F32, _, ga), Tensor.Store (Precision.F32, _, gb),
    Tensor.Store (Precision.F32, _, gc) ->
      Blas.gemm ~alpha ~beta ~transa ~transb ~m ~n ~k ~a:ga.Tensor.data ~off_a
        ~b:gb.Tensor.data ~off_b ~c:gc.Tensor.data ~off_c ()
  | Tensor.Store (Precision.I8, qa, ga), Tensor.Store (Precision.I8, qb, gb),
    Tensor.Store (Precision.F32, _, gc) ->
      scale_c_f32 ~beta ~m ~n ~c:gc.Tensor.data ~off_c;
      gemm_i8i8 ~alpha ~transa ~transb ~m ~n ~k ~qa ~a:ga.Tensor.data ~off_a
        ~qb ~b:gb.Tensor.data ~off_b ~c:gc.Tensor.data ~off_c
  | Tensor.Store (Precision.F32, _, ga), Tensor.Store (Precision.I8, qb, gb),
    Tensor.Store (Precision.F32, _, gc) ->
      scale_c_f32 ~beta ~m ~n ~c:gc.Tensor.data ~off_c;
      gemm_f32i8 ~alpha ~transa ~transb ~m ~n ~k ~a:ga.Tensor.data ~off_a ~qb
        ~b:gb.Tensor.data ~off_b ~c:gc.Tensor.data ~off_c
  | _ -> gemm_mixed ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c
