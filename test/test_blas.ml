(* GEMM and BLAS kernel tests: the blocked kernels must agree with the
   triple-loop reference for every transpose combination, size and
   offset. *)

let buffer_of_array a =
  let t = Tensor.of_array (Shape.create [ Array.length a ]) a in
  Tensor.data t

let random_buf rng n = buffer_of_array (Array.init n (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0))

let buf_to_array b = Array.init (Bigarray.Array1.dim b) (Bigarray.Array1.get b)

let check_gemm ?(alpha = 1.0) ?(beta = 1.0) ~transa ~transb ~m ~n ~k () =
  let rng = Rng.create (m + (31 * n) + (97 * k) + if transa then 7 else 0) in
  let a = random_buf rng (m * k) in
  let b = random_buf rng (k * n) in
  let c1 = random_buf rng (m * n) in
  let c2 = buffer_of_array (buf_to_array c1) in
  Blas.gemm ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~b ~c:c1 ();
  Blas.gemm_naive ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~b ~c:c2 ();
  let d = ref 0.0 in
  for i = 0 to (m * n) - 1 do
    d := Float.max !d (Float.abs (Bigarray.Array1.get c1 i -. Bigarray.Array1.get c2 i))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "gemm %c%c %dx%dx%d agrees (max diff %g)"
       (if transa then 'T' else 'N') (if transb then 'T' else 'N') m n k !d)
    true (!d < 1e-3)

let test_gemm_all_trans () =
  List.iter
    (fun (transa, transb) ->
      List.iter
        (fun (m, n, k) -> check_gemm ~transa ~transb ~m ~n ~k ())
        [ (1, 1, 1); (3, 4, 5); (8, 8, 8); (17, 13, 9); (32, 1, 64); (1, 32, 64) ])
    [ (false, false); (true, false); (false, true); (true, true) ]

let test_gemm_alpha_beta () =
  check_gemm ~alpha:2.5 ~beta:0.0 ~transa:false ~transb:false ~m:5 ~n:6 ~k:7 ();
  check_gemm ~alpha:(-1.0) ~beta:3.0 ~transa:true ~transb:false ~m:5 ~n:6 ~k:7 ()

let test_gemm_offsets () =
  let rng = Rng.create 42 in
  let m = 4 and n = 3 and k = 5 in
  let pad = 11 in
  let a = random_buf rng ((m * k) + pad) in
  let b = random_buf rng ((k * n) + pad) in
  let c1 = random_buf rng ((m * n) + pad) in
  let c2 = buffer_of_array (buf_to_array c1) in
  Blas.gemm ~transa:false ~transb:false ~m ~n ~k ~a ~off_a:pad ~b ~off_b:pad ~c:c1
    ~off_c:pad ();
  Blas.gemm_naive ~transa:false ~transb:false ~m ~n ~k ~a ~off_a:pad ~b ~off_b:pad
    ~c:c2 ~off_c:pad ();
  for i = 0 to (m * n) + pad - 1 do
    Alcotest.(check (float 1e-4)) "offset gemm"
      (Bigarray.Array1.get c2 i) (Bigarray.Array1.get c1 i)
  done

let test_gemm_beta_zero_clears () =
  (* beta = 0 must overwrite garbage, including NaN. *)
  let a = buffer_of_array [| 1.0 |] in
  let b = buffer_of_array [| 2.0 |] in
  let c = buffer_of_array [| Float.nan |] in
  Blas.gemm ~beta:0.0 ~transa:false ~transb:false ~m:1 ~n:1 ~k:1 ~a ~b ~c ();
  Alcotest.(check (float 1e-6)) "cleared" 2.0 (Bigarray.Array1.get c 0)

let test_gemv () =
  let rng = Rng.create 5 in
  let m = 6 and n = 4 in
  let a = random_buf rng (m * n) in
  let x = random_buf rng n in
  let y = buffer_of_array (Array.make m 0.0) in
  Blas.gemv ~transa:false ~m ~n ~a ~x ~y;
  (* Reference via gemm with n=1. *)
  let y2 = buffer_of_array (Array.make m 0.0) in
  Blas.gemm_naive ~transa:false ~transb:false ~m ~n:1 ~k:n ~a ~b:x ~c:y2 ();
  for i = 0 to m - 1 do
    Alcotest.(check (float 1e-4)) "gemv" (Bigarray.Array1.get y2 i)
      (Bigarray.Array1.get y i)
  done

let test_axpy_dot_scal () =
  let x = buffer_of_array [| 1.0; 2.0; 3.0 |] in
  let y = buffer_of_array [| 1.0; 1.0; 1.0 |] in
  Blas.axpy ~alpha:2.0 ~n:3 ~x ~y;
  Alcotest.(check (float 1e-6)) "axpy" 7.0 (Bigarray.Array1.get y 2);
  Alcotest.(check (float 1e-4)) "dot" 34.0 (Blas.dot ~n:3 ~x ~y);
  Blas.scal ~alpha:0.5 ~n:3 ~x;
  Alcotest.(check (float 1e-6)) "scal" 1.5 (Bigarray.Array1.get x 2)

let test_flops () =
  Alcotest.(check (float 0.0)) "2mnk" 24.0 (Blas.gemm_flops ~m:2 ~n:2 ~k:3)

(* Qblas against an independent reference: a plain float-array triple
   loop over operands dequantized with [Precision], so a wrong load,
   stride, offset or zero point in any kernel shows. The compiled-vs-
   interpreter differential cannot see such an error, because both
   paths dispatch the same Qblas kernels. *)

type qkind = Qf32 | Qi8 of Precision.qparams

(* A packed operand of [n] elements and its dequantized values. Each
   value is drawn exactly representable in the operand's kind, so the
   store holds precisely the values the reference multiplies. *)
let qoperand rng kind n =
  let uniform () = Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
  let prec, qparams, draw =
    match kind with
    | Qf32 ->
        ( Precision.Any Precision.F32,
          Precision.qid,
          fun () -> Int32.float_of_bits (Int32.bits_of_float (uniform ())) )
    | Qi8 qp ->
        ( Precision.Any Precision.I8,
          qp,
          fun () -> Precision.dequantize qp (Rng.int rng 256 - 128) )
  in
  let st = Tensor.store_create ~qparams prec [| n |] in
  let values = Array.init n (fun _ -> draw ()) in
  Array.iteri (Tensor.store_set1 st) values;
  (st, values)

let test_qblas_reference () =
  let qa = { Precision.scale = 0.013; zero_point = 3 }
  and qb = { Precision.scale = 0.021; zero_point = -5 } in
  let m = 5 and n = 7 and k = 9 in
  let off_a = 3 and off_b = 5 and off_c = 2 and pad = 4 in
  List.iter
    (fun (ka, kb, kernel) ->
      List.iter
        (fun (transa, transb) ->
          List.iter
            (fun (alpha, beta) ->
              let rng = Rng.create 17 in
              let a, da = qoperand rng ka (off_a + (m * k) + pad) in
              let b, db = qoperand rng kb (off_b + (k * n) + pad) in
              let c, dc = qoperand rng Qf32 (off_c + (m * n) + pad) in
              Alcotest.(check string) "dispatch" kernel (Qblas.kernel_name a b c);
              let opa i p = da.(off_a + if transa then (p * m) + i else (i * k) + p)
              and opb p j = db.(off_b + if transb then (j * k) + p else (p * n) + j) in
              Qblas.gemm ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~off_a ~b ~off_b
                ~c ~off_c ();
              let got = Tensor.store_to_f32 c in
              Array.iteri
                (fun ci c0 ->
                  let expected =
                    let r = ci - off_c in
                    if r < 0 || r >= m * n then c0
                    else begin
                      let i = r / n and j = r mod n in
                      let acc = ref 0.0 in
                      for p = 0 to k - 1 do
                        acc := !acc +. (opa i p *. opb p j)
                      done;
                      (beta *. c0) +. (alpha *. !acc)
                    end
                  in
                  let v = Tensor.get1 got ci in
                  if Float.abs (v -. expected) > 1e-5 *. Float.max 1.0 (Float.abs expected)
                  then
                    Alcotest.failf "%s %c%c alpha=%g beta=%g: C[%d] = %g, expected %g"
                      kernel
                      (if transa then 'T' else 'N')
                      (if transb then 'T' else 'N')
                      alpha beta ci v expected)
                dc)
            [ (1.0, 0.0); (1.0, 0.5); (1.0, 1.0); (-1.75, 0.0); (-1.75, 0.5); (-1.75, 1.0) ])
        [ (false, false); (true, false); (false, true); (true, true) ])
    [
      (Qi8 qa, Qi8 qb, "gemm_i8i8");
      (Qf32, Qi8 qb, "gemm_f32i8");
      (Qi8 qa, Qf32, "gemm_mixed");
    ]

let size_gen = QCheck.Gen.int_range 1 24

let prop_gemm_random =
  QCheck.Test.make ~count:60 ~name:"blocked gemm = naive gemm (random sizes)"
    (QCheck.make
       QCheck.Gen.(
         tup5 size_gen size_gen size_gen bool bool))
    (fun (m, n, k, transa, transb) ->
      let rng = Rng.create ((m * 1000) + (n * 100) + k) in
      let a = random_buf rng (m * k) in
      let b = random_buf rng (k * n) in
      let c1 = random_buf rng (m * n) in
      let c2 = buffer_of_array (buf_to_array c1) in
      Blas.gemm ~transa ~transb ~m ~n ~k ~a ~b ~c:c1 ();
      Blas.gemm_naive ~transa ~transb ~m ~n ~k ~a ~b ~c:c2 ();
      let ok = ref true in
      for i = 0 to (m * n) - 1 do
        if Float.abs (Bigarray.Array1.get c1 i -. Bigarray.Array1.get c2 i) > 1e-3
        then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "gemm all transposes" `Quick test_gemm_all_trans;
    Alcotest.test_case "gemm alpha/beta" `Quick test_gemm_alpha_beta;
    Alcotest.test_case "gemm offsets" `Quick test_gemm_offsets;
    Alcotest.test_case "gemm beta=0 clears" `Quick test_gemm_beta_zero_clears;
    Alcotest.test_case "gemv" `Quick test_gemv;
    Alcotest.test_case "axpy/dot/scal" `Quick test_axpy_dot_scal;
    Alcotest.test_case "gemm_flops" `Quick test_flops;
    Alcotest.test_case "qblas kernels = float reference" `Quick test_qblas_reference;
    QCheck_alcotest.to_alcotest prop_gemm_random;
  ]
