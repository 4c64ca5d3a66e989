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

let gemm_naive ?(alpha = 1.0) ?(beta = 1.0) ~transa ~transb ~m ~n ~k ~a
    ?(off_a = 0) ~b ?(off_b = 0) ~c ?(off_c = 0) () =
  scale_c ~beta ~m ~n ~c ~off_c;
  let idx_a i p = if transa then off_a + (p * m) + i else off_a + (i * k) + p in
  let idx_b p j = if transb then off_b + (j * k) + p else off_b + (p * n) + j in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (ug a (idx_a i p) *. ug b (idx_b p j))
      done;
      let ci = off_c + (i * n) + j in
      us c ci (ug c ci +. (alpha *. !acc))
    done
  done

(* C[i,:] += s * B[row_b,:], the unrolled saxpy at the heart of the
   row-major ikj GEMM orderings. *)
let saxpy_row ~n ~s ~b ~row_b ~c ~row_c =
  let j = ref 0 in
  while !j + 3 < n do
    let j0 = !j in
    us c (row_c + j0) (ug c (row_c + j0) +. (s *. ug b (row_b + j0)));
    us c (row_c + j0 + 1) (ug c (row_c + j0 + 1) +. (s *. ug b (row_b + j0 + 1)));
    us c (row_c + j0 + 2) (ug c (row_c + j0 + 2) +. (s *. ug b (row_b + j0 + 2)));
    us c (row_c + j0 + 3) (ug c (row_c + j0 + 3) +. (s *. ug b (row_b + j0 + 3)));
    j := j0 + 4
  done;
  while !j < n do
    us c (row_c + !j) (ug c (row_c + !j) +. (s *. ug b (row_b + !j)));
    incr j
  done

let gemm_nn ~alpha ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c =
  (* ikj order: stream rows of B against each row of A. Block over k to
     keep the active slab of B in cache for large problems. *)
  let kb = 256 in
  let p0 = ref 0 in
  while !p0 < k do
    let p1 = min k (!p0 + kb) in
    for i = 0 to m - 1 do
      let row_a = off_a + (i * k) in
      let row_c = off_c + (i * n) in
      for p = !p0 to p1 - 1 do
        let s = alpha *. ug a (row_a + p) in
        if s <> 0.0 then saxpy_row ~n ~s ~b ~row_b:(off_b + (p * n)) ~c ~row_c
      done
    done;
    p0 := p1
  done

let gemm_tn ~alpha ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c =
  (* A stored k x m; stream both A and B by rows of the shared k dim. *)
  for p = 0 to k - 1 do
    let row_a = off_a + (p * m) in
    let row_b = off_b + (p * n) in
    for i = 0 to m - 1 do
      let s = alpha *. ug a (row_a + i) in
      if s <> 0.0 then saxpy_row ~n ~s ~b ~row_b ~c ~row_c:(off_c + (i * n))
    done
  done

let gemm_nt ~alpha ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c =
  (* B stored n x k: each C[i,j] is a dot of two contiguous rows. *)
  for i = 0 to m - 1 do
    let row_a = off_a + (i * k) in
    for j = 0 to n - 1 do
      let row_b = off_b + (j * k) in
      let acc = ref 0.0 in
      let p = ref 0 in
      while !p + 3 < k do
        let p0 = !p in
        acc :=
          !acc
          +. (ug a (row_a + p0) *. ug b (row_b + p0))
          +. (ug a (row_a + p0 + 1) *. ug b (row_b + p0 + 1))
          +. (ug a (row_a + p0 + 2) *. ug b (row_b + p0 + 2))
          +. (ug a (row_a + p0 + 3) *. ug b (row_b + p0 + 3));
        p := p0 + 4
      done;
      while !p < k do
        acc := !acc +. (ug a (row_a + !p) *. ug b (row_b + !p));
        incr p
      done;
      let ci = off_c + (i * n) + j in
      us c ci (ug c ci +. (alpha *. !acc))
    done
  done

let gemm ?(alpha = 1.0) ?(beta = 1.0) ~transa ~transb ~m ~n ~k ~a ?(off_a = 0)
    ~b ?(off_b = 0) ~c ?(off_c = 0) () =
  scale_c ~beta ~m ~n ~c ~off_c;
  match (transa, transb) with
  | false, false -> gemm_nn ~alpha ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c
  | true, false -> gemm_tn ~alpha ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c
  | false, true -> gemm_nt ~alpha ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c
  | true, true ->
      gemm_naive ~alpha ~beta:1.0 ~transa ~transb ~m ~n ~k ~a ~off_a ~b ~off_b
        ~c ~off_c ()

let gemv ~transa ~m ~n ~a ~x ~y =
  if transa then
    for i = 0 to m - 1 do
      let s = ug x i in
      if s <> 0.0 then
        for j = 0 to n - 1 do
          us y j (ug y j +. (s *. ug a ((i * n) + j)))
        done
    done
  else
    for i = 0 to m - 1 do
      let acc = ref 0.0 in
      let row = i * n in
      for j = 0 to n - 1 do
        acc := !acc +. (ug a (row + j) *. ug x j)
      done;
      us y i (ug y i +. !acc)
    done

let axpy ~alpha ~n ~x ~y =
  for i = 0 to n - 1 do
    us y i (ug y i +. (alpha *. ug x i))
  done

let dot ~n ~x ~y =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (ug x i *. ug y i)
  done;
  !acc

let scal ~alpha ~n ~x =
  for i = 0 to n - 1 do
    us x i (alpha *. ug x i)
  done
