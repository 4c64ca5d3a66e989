type buffer = Tensor.buffer

let ug = Tensor.buffer_get
let us = Tensor.buffer_set

let gemm_flops ~m ~n ~k = 2.0 *. float_of_int m *. float_of_int n *. float_of_int k

let scale_c ~beta ~m ~n ~c ~off_c =
  if beta = 0.0 then
    for i = 0 to (m * n) - 1 do
      us c (off_c + i) 0.0
    done
  else if beta <> 1.0 then
    for i = 0 to (m * n) - 1 do
      us c (off_c + i) (beta *. ug c (off_c + i))
    done

(* The one summation rule every kernel below follows, spelled out once:
   C[i,j] := C[i,j] + alpha * acc, where acc is a double summed from +0.0
   over ascending p of op(A)[i,p] * op(B)[p,j]; when [transb] is false
   only the nonzero op(A)[i,p] are summed. *)
let gemm_naive ?(alpha = 1.0) ?(beta = 1.0) ~transa ~transb ~m ~n ~k ~a
    ?(off_a = 0) ~b ?(off_b = 0) ~c ?(off_c = 0) () =
  scale_c ~beta ~m ~n ~c ~off_c;
  let idx_a i p = if transa then off_a + (p * m) + i else off_a + (i * k) + p in
  let idx_b p j = if transb then off_b + (j * k) + p else off_b + (p * n) + j in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        let x = ug a (idx_a i p) in
        if transb || x <> 0.0 then acc := !acc +. (x *. ug b (idx_b p j))
      done;
      let ci = off_c + (i * n) + j in
      us c ci (ug c ci +. (alpha *. !acc))
    done
  done

(* C[ci] += alpha * acc: the one rounding to f32 per element. *)
let[@inline] put ~alpha c ci acc = us c ci (ug c ci +. (alpha *. acc))

(* transb = true: op(B) is stored n x k, so each C element is a dot
   product of a row of op(A) and a contiguous row of B. A 4x2 block of C
   keeps eight double accumulators in registers, so every load of A
   feeds two products and every load of B four; a 4x4 block spills.
   Rows past the last full block take 1x2 blocks, and an odd last column
   one dot product per element. *)
let gemm_dot ~alpha ~transa ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c =
  (* op(A)[i,p] = a[off_a + i*as_i + p*as_p] *)
  let as_i = if transa then 1 else k and as_p = if transa then m else 1 in
  let dot i j =
    let rb = off_b + (j * k) in
    let acc = ref 0.0 in
    let pa = ref (off_a + (i * as_i)) in
    for p = 0 to k - 1 do
      acc := !acc +. (ug a !pa *. ug b (rb + p));
      pa := !pa + as_p
    done;
    put ~alpha c (off_c + (i * n) + j) !acc
  in
  let m4 = m - (m mod 4) and n2 = n - (n mod 2) in
  for i4 = 0 to (m4 / 4) - 1 do
    let i0 = 4 * i4 in
    for j2 = 0 to (n2 / 2) - 1 do
      let j0 = 2 * j2 in
      let rb = off_b + (j0 * k) in
      let c00 = ref 0.0 and c01 = ref 0.0 and c10 = ref 0.0 and c11 = ref 0.0 in
      let c20 = ref 0.0 and c21 = ref 0.0 and c30 = ref 0.0 and c31 = ref 0.0 in
      let pa = ref (off_a + (i0 * as_i)) in
      for p = 0 to k - 1 do
        let b0 = ug b (rb + p) and b1 = ug b (rb + k + p) in
        let a0 = ug a !pa and a1 = ug a (!pa + as_i) in
        c00 := !c00 +. (a0 *. b0);
        c01 := !c01 +. (a0 *. b1);
        c10 := !c10 +. (a1 *. b0);
        c11 := !c11 +. (a1 *. b1);
        let a2 = ug a (!pa + (2 * as_i)) and a3 = ug a (!pa + (3 * as_i)) in
        c20 := !c20 +. (a2 *. b0);
        c21 := !c21 +. (a2 *. b1);
        c30 := !c30 +. (a3 *. b0);
        c31 := !c31 +. (a3 *. b1);
        pa := !pa + as_p
      done;
      let rc = off_c + (i0 * n) + j0 in
      put ~alpha c rc !c00;
      put ~alpha c (rc + 1) !c01;
      put ~alpha c (rc + n) !c10;
      put ~alpha c (rc + n + 1) !c11;
      put ~alpha c (rc + (2 * n)) !c20;
      put ~alpha c (rc + (2 * n) + 1) !c21;
      put ~alpha c (rc + (3 * n)) !c30;
      put ~alpha c (rc + (3 * n) + 1) !c31
    done;
    if n2 < n then
      for i = i0 to i0 + 3 do
        dot i n2
      done
  done;
  for i = m4 to m - 1 do
    for j2 = 0 to (n2 / 2) - 1 do
      let j0 = 2 * j2 in
      let rb = off_b + (j0 * k) in
      let c0 = ref 0.0 and c1 = ref 0.0 in
      let pa = ref (off_a + (i * as_i)) in
      for p = 0 to k - 1 do
        let a0 = ug a !pa in
        c0 := !c0 +. (a0 *. ug b (rb + p));
        c1 := !c1 +. (a0 *. ug b (rb + k + p));
        pa := !pa + as_p
      done;
      let rc = off_c + (i * n) + j0 in
      put ~alpha c rc !c0;
      put ~alpha c (rc + 1) !c1
    done;
    if n2 < n then dot i n2
  done

(* The gather kernel's work arrays: B offsets and values of one row's
   nonzero op(A) entries. One pair per domain, grown to the largest k
   seen, so a warm call allocates nothing. *)
type work = { mutable offs : int array; mutable vals : float array }

let work_key = Domain.DLS.new_key (fun () -> { offs = [||]; vals = [||] })

let work_arrays k =
  let s = Domain.DLS.get work_key in
  if Array.length s.offs < k then begin
    s.offs <- Array.make k 0;
    s.vals <- Array.make k 0.0
  end;
  s

(* transb = false: every backward GEMM, where op(A) is a gradient that
   ReLU and max-pool leave mostly zero. Each row of op(A) is gathered
   once into its nonzero (B row offset, value) pairs, then four C
   columns at a time are summed over those pairs from contiguous rows of
   B; a 1-column tail covers n mod 4. *)
let gemm_gather ~alpha ~transa ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c =
  let as_i = if transa then 1 else k and as_p = if transa then m else 1 in
  let s = work_arrays k in
  let offs = s.offs and vals = s.vals in
  let n4 = n - (n mod 4) in
  for i = 0 to m - 1 do
    let nz = ref 0 in
    let pa = ref (off_a + (i * as_i)) in
    for p = 0 to k - 1 do
      let x = ug a !pa in
      if x <> 0.0 then begin
        Array.unsafe_set offs !nz (off_b + (p * n));
        Array.unsafe_set vals !nz x;
        incr nz
      end;
      pa := !pa + as_p
    done;
    let nz = !nz in
    let rc = off_c + (i * n) in
    for j4 = 0 to (n4 / 4) - 1 do
      let j0 = 4 * j4 in
      let c0 = ref 0.0 and c1 = ref 0.0 and c2 = ref 0.0 and c3 = ref 0.0 in
      for q = 0 to nz - 1 do
        let x = Array.unsafe_get vals q and o = Array.unsafe_get offs q + j0 in
        c0 := !c0 +. (x *. ug b o);
        c1 := !c1 +. (x *. ug b (o + 1));
        c2 := !c2 +. (x *. ug b (o + 2));
        c3 := !c3 +. (x *. ug b (o + 3))
      done;
      put ~alpha c (rc + j0) !c0;
      put ~alpha c (rc + j0 + 1) !c1;
      put ~alpha c (rc + j0 + 2) !c2;
      put ~alpha c (rc + j0 + 3) !c3
    done;
    for j0 = n4 to n - 1 do
      let acc = ref 0.0 in
      for q = 0 to nz - 1 do
        acc := !acc +. (Array.unsafe_get vals q *. ug b (Array.unsafe_get offs q + j0))
      done;
      put ~alpha c (rc + j0) !acc
    done
  done

let gemm ?(alpha = 1.0) ?(beta = 1.0) ~transa ~transb ~m ~n ~k ~a ?(off_a = 0)
    ~b ?(off_b = 0) ~c ?(off_c = 0) () =
  scale_c ~beta ~m ~n ~c ~off_c;
  if transb then gemm_dot ~alpha ~transa ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c
  else gemm_gather ~alpha ~transa ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c
