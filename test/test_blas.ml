(* GEMM kernel tests: the blocked kernels must equal the triple-loop
   oracle bit for bit for every transpose combination, size, offset,
   alpha and beta, with NaN, infinities and signed zeros planted in
   every operand. *)

let buffer_of_array a =
  let t = Tensor.of_array (Shape.create [ Array.length a ]) a in
  Tensor.data t

let random_buf rng n = buffer_of_array (Array.init n (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0))

let buf_to_array b = Array.init (Bigarray.Array1.dim b) (Bigarray.Array1.get b)

let specials = [| Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0 |]

(* A uniform operand of [len] elements with [plant] of them, drawn from
   the same generator, replaced by IEEE special values. *)
let operand rng ~plant len =
  let b = random_buf rng len in
  for _ = 1 to plant do
    Bigarray.Array1.set b (Rng.int rng len) specials.(Rng.int rng (Array.length specials))
  done;
  b

let orient transa transb =
  Printf.sprintf "%c%c" (if transa then 'T' else 'N') (if transb then 'T' else 'N')

(* Runs {!Blas.gemm} and the oracle on copies of one C and fails on the
   first element whose bits differ: NaN payloads and the sign of zero
   count. Each operand sits at its offset inside a padded buffer, so a
   write outside the C span shows too. *)
let check_gemm ?(alpha = 1.0) ?(beta = 1.0) ?(offs = (0, 0, 0)) ?(plant = 0)
    ?(seed = 0) ~transa ~transb ~m ~n ~k () =
  let off_a, off_b, off_c = offs in
  let rng = Rng.create (seed + m + (31 * n) + (97 * k) + if transa then 7 else 0) in
  let pad = 3 in
  let a = operand rng ~plant (off_a + (m * k) + pad) in
  let b = operand rng ~plant (off_b + (k * n) + pad) in
  let c1 = operand rng ~plant (off_c + (m * n) + pad) in
  let c0 = buf_to_array c1 in
  let c2 = buffer_of_array c0 in
  Blas.gemm ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~off_a ~b ~off_b ~c:c1
    ~off_c ();
  Blas.gemm_naive ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~off_a ~b ~off_b
    ~c:c2 ~off_c ();
  Array.iteri
    (fun i x ->
      let got = Bigarray.Array1.get c1 i and want = Bigarray.Array1.get c2 i in
      let outside = i < off_c || i >= off_c + (m * n) in
      if
        (not (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want)))
        || (outside && not (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float x)))
      then
        Alcotest.failf
          "gemm %s %dx%dx%d alpha=%g beta=%g offs=(%d,%d,%d) seed=%d: C[%d] = %h, \
           oracle %h, before %h"
          (orient transa transb) m n k alpha beta off_a off_b off_c seed i got want x)
    c0

let orientations = [ (false, false); (true, false); (false, true); (true, true) ]

let test_gemm_all_trans () =
  List.iter
    (fun (transa, transb) ->
      List.iter
        (fun (m, n, k) -> check_gemm ~transa ~transb ~m ~n ~k ())
        [ (1, 1, 1); (3, 4, 5); (8, 8, 8); (17, 13, 9); (32, 1, 64); (1, 32, 64);
          (256, 8, 27) ])
    orientations

let test_gemm_alpha_beta () =
  List.iter
    (fun (transa, transb) ->
      List.iter
        (fun (alpha, beta) ->
          check_gemm ~alpha ~beta ~plant:4 ~transa ~transb ~m:5 ~n:6 ~k:7 ())
        [ (2.5, 0.0); (-1.0, 3.0); (-1.75, 0.5); (1.0, 1.0) ])
    orientations

let test_gemm_offsets () =
  List.iter
    (fun (transa, transb) ->
      List.iter
        (fun offs -> check_gemm ~offs ~plant:3 ~transa ~transb ~m:6 ~n:5 ~k:7 ())
        [ (11, 11, 11); (1, 0, 5); (0, 7, 2) ])
    orientations

let test_gemm_beta_zero_clears () =
  (* beta = 0 must overwrite garbage, including NaN. *)
  let a = buffer_of_array [| 1.0 |] in
  let b = buffer_of_array [| 2.0 |] in
  let c = buffer_of_array [| Float.nan |] in
  Blas.gemm ~beta:0.0 ~transa:false ~transb:false ~m:1 ~n:1 ~k:1 ~a ~b ~c ();
  Alcotest.(check (float 1e-6)) "cleared" 2.0 (Bigarray.Array1.get c 0)

(* The one place the two rules differ: a zero in op(A) facing an
   infinity in op(B). A dot product (transb) sums 0·inf = NaN; the
   gather (not transb) skips the zero, so C stays finite. Both the
   blocked kernels and the oracle, in every tile position of a 6x5 C. *)
let test_gemm_zero_times_inf () =
  let m = 6 and n = 5 and k = 7 in
  List.iter
    (fun (transa, transb) ->
      List.iter
        (fun (i0, j0, p0) ->
          let a = buffer_of_array (Array.make (m * k) 1.0) in
          let b = buffer_of_array (Array.make (k * n) 0.5) in
          Bigarray.Array1.set a (if transa then (p0 * m) + i0 else (i0 * k) + p0) 0.0;
          Bigarray.Array1.set b (if transb then (j0 * k) + p0 else (p0 * n) + j0) Float.infinity;
          List.iter
            (fun (what, gemm) ->
              let c = buffer_of_array (Array.make (m * n) 0.0) in
              gemm ~transa ~transb ~m ~n ~k ~a ~b ~c;
              let v = Bigarray.Array1.get c ((i0 * n) + j0) in
              if transb <> Float.is_nan v then
                Alcotest.failf "%s %s: 0 x inf at C[%d,%d] gave %h" what
                  (orient transa transb) i0 j0 v)
            [
              ("gemm", fun ~transa ~transb ~m ~n ~k ~a ~b ~c ->
                  Blas.gemm ~transa ~transb ~m ~n ~k ~a ~b ~c ());
              ("gemm_naive", fun ~transa ~transb ~m ~n ~k ~a ~b ~c ->
                  Blas.gemm_naive ~transa ~transb ~m ~n ~k ~a ~b ~c ());
            ])
        [ (0, 0, 0); (3, 1, 6); (5, 4, 2); (4, 3, 3) ])
    orientations

(* Every sum starts from +0.0 and every element takes its
   [c + alpha * acc] even when nothing was summed: with op(A) all -0.0
   (skipped when not [transb], -0.0 products when [transb]) and C all
   -0.0, each element must come out +0.0, in every tile and tail. *)
let test_gemm_empty_sum () =
  let m = 5 and n = 7 and k = 3 in
  List.iter
    (fun (transa, transb) ->
      List.iter
        (fun (what, gemm) ->
          let a = buffer_of_array (Array.make (m * k) (-0.0)) in
          let b = buffer_of_array (Array.make (k * n) 1.0) in
          let c = buffer_of_array (Array.make (m * n) (-0.0)) in
          gemm ~transa ~transb ~m ~n ~k ~a ~b ~c;
          Array.iteri
            (fun i v ->
              if Float.sign_bit v || v <> 0.0 then
                Alcotest.failf "%s %s: C[%d] = %h, expected +0.0" what
                  (orient transa transb) i v)
            (buf_to_array c))
        [
          ("gemm", fun ~transa ~transb ~m ~n ~k ~a ~b ~c ->
              Blas.gemm ~transa ~transb ~m ~n ~k ~a ~b ~c ());
          ("gemm_naive", fun ~transa ~transb ~m ~n ~k ~a ~b ~c ->
              Blas.gemm_naive ~transa ~transb ~m ~n ~k ~a ~b ~c ());
        ])
    orientations

let test_flops () =
  Alcotest.(check (float 0.0)) "2mnk" 24.0 (Blas.gemm_flops ~m:2 ~n:2 ~k:3)

(* Qblas against an independent reference: a plain float-array triple
   loop over operands dequantized with [Precision], so a wrong load,
   stride, offset or scale in any kernel shows. The compiled-vs-
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
  let qa = { Precision.scale = 0.013 } and qb = { Precision.scale = 0.021 } in
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

(* Sizes 1-24 reach every 4x2 and 4-column tail; offsets, alpha, beta
   and up to three planted special values per operand are drawn too. *)
let gemm_case =
  QCheck.make
    ~print:(fun ((m, n, k, transa, transb), (alpha, beta, (oa, ob, oc), seed)) ->
      Printf.sprintf "%s m=%d n=%d k=%d alpha=%g beta=%g offs=(%d,%d,%d) seed=%d"
        (orient transa transb) m n k alpha beta oa ob oc seed)
    QCheck.Gen.(
      pair
        (tup5 size_gen size_gen size_gen bool bool)
        (tup4 (oneofl [ 1.0; -1.75 ]) (oneofl [ 0.0; 0.5; 1.0 ])
           (triple (int_bound 5) (int_bound 5) (int_bound 5))
           (int_bound 10_000)))

let prop_gemm_random =
  QCheck.Test.make ~count:300 ~name:"blocked gemm = naive gemm (random sizes)"
    gemm_case
    (fun ((m, n, k, transa, transb), (alpha, beta, offs, seed)) ->
      check_gemm ~alpha ~beta ~offs ~plant:(seed mod 4) ~seed ~transa ~transb ~m
        ~n ~k ();
      true)

(* Qblas's int8 x int8 kernel against an integer reference: the exact
   sum of code products, rescaled once, as the kernel promises. Integer
   sums have no order, so the 4x2 blocking must move no bit. *)
let test_i8i8_integer_reference () =
  let qa = { Precision.scale = 0.013 } and qb = { Precision.scale = 0.021 } in
  let rng = Rng.create 29 in
  let codes qp len =
    let st = Tensor.store_create ~qparams:qp (Precision.Any Precision.I8) [| len |] in
    let q = Array.init len (fun _ -> Rng.int rng 256 - 128) in
    Array.iteri (fun i x -> Tensor.store_set1 st i (Precision.dequantize qp x)) q;
    (st, q)
  in
  let to_f32 x = Int32.float_of_bits (Int32.bits_of_float x) in
  for case = 1 to 60 do
    let m = 1 + Rng.int rng 24 and n = 1 + Rng.int rng 24 and k = 1 + Rng.int rng 24 in
    let transa = Rng.int rng 2 = 0 and transb = Rng.int rng 2 = 0 in
    let alpha = if Rng.int rng 2 = 0 then 1.0 else -1.75 in
    let beta = [| 0.0; 0.5; 1.0 |].(Rng.int rng 3) in
    let off_a = Rng.int rng 5 and off_b = Rng.int rng 5 and off_c = Rng.int rng 5 in
    let a, ca = codes qa (off_a + (m * k) + 2) in
    let b, cb = codes qb (off_b + (k * n) + 2) in
    let c = Tensor.store_create (Precision.Any Precision.F32) [| off_c + (m * n) + 2 |] in
    let c0 = buf_to_array (operand rng ~plant:2 (off_c + (m * n) + 2)) in
    Array.iteri (Tensor.store_set1 c) c0;
    Alcotest.(check string) "dispatch" "gemm_i8i8" (Qblas.kernel_name a b c);
    Qblas.gemm ~alpha ~beta ~transa ~transb ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c ();
    let got = Tensor.store_to_f32 c in
    let rescale = alpha *. qa.Precision.scale *. qb.Precision.scale in
    Array.iteri
      (fun ci x ->
        let want =
          let r = ci - off_c in
          if r < 0 || r >= m * n then x
          else begin
            let i = r / n and j = r mod n in
            let acc = ref 0 in
            for p = 0 to k - 1 do
              let qa' = ca.(off_a + if transa then (p * m) + i else (i * k) + p)
              and qb' = cb.(off_b + if transb then (j * k) + p else (p * n) + j) in
              acc := !acc + (qa' * qb')
            done;
            let c' = if beta = 0.0 then 0.0 else if beta = 1.0 then x else to_f32 (beta *. x) in
            to_f32 (c' +. (rescale *. float_of_int !acc))
          end
        in
        let v = Tensor.get1 got ci in
        if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float want)) then
          Alcotest.failf "case %d: gemm_i8i8 %s %dx%dx%d alpha=%g beta=%g: C[%d] = %h, expected %h"
            case (orient transa transb) m n k alpha beta ci v want)
      c0
  done

let suite =
  [
    Alcotest.test_case "gemm all transposes" `Quick test_gemm_all_trans;
    Alcotest.test_case "gemm alpha/beta" `Quick test_gemm_alpha_beta;
    Alcotest.test_case "gemm offsets" `Quick test_gemm_offsets;
    Alcotest.test_case "gemm beta=0 clears" `Quick test_gemm_beta_zero_clears;
    Alcotest.test_case "gemm 0 x inf by transb" `Quick test_gemm_zero_times_inf;
    Alcotest.test_case "gemm empty sum is +0.0" `Quick test_gemm_empty_sum;
    Alcotest.test_case "gemm_flops" `Quick test_flops;
    Alcotest.test_case "qblas kernels = float reference" `Quick test_qblas_reference;
    Alcotest.test_case "qblas i8i8 = integer reference" `Quick test_i8i8_integer_reference;
    QCheck_alcotest.to_alcotest prop_gemm_random;
  ]
