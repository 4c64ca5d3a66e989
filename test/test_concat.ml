(* Channel concatenation and grouped convolution (AlexNet's grouping). *)

let test_concat_values () =
  let net = Test_util.base_net ~batch:2 in
  let a = Layers.data_layer net ~name:"a" ~shape:[ 2; 2; 2 ] in
  let b = Layers.data_layer net ~name:"b" ~shape:[ 2; 2; 3 ] in
  let cat = Layers.concat_channels net ~name:"cat" ~inputs:[ a; b ] in
  Alcotest.(check string) "shape" "2x2x5" (Shape.to_string cat.Ensemble.shape);
  let exec = Test_util.prepare net in
  let ta = Executor.lookup exec "a.value" and tb = Executor.lookup exec "b.value" in
  Tensor.iteri (fun i _ -> Tensor.set1 ta i (float_of_int i)) ta;
  Tensor.iteri (fun i _ -> Tensor.set1 tb i (100.0 +. float_of_int i)) tb;
  Executor.forward exec;
  let out = Executor.lookup exec "cat.value" in
  for n = 0 to 1 do
    for y = 0 to 1 do
      for x = 0 to 1 do
        for c = 0 to 1 do
          Alcotest.(check (float 0.0)) "from a"
            (Tensor.get ta [| n; y; x; c |])
            (Tensor.get out [| n; y; x; c |])
        done;
        for c = 0 to 2 do
          Alcotest.(check (float 0.0)) "from b"
            (Tensor.get tb [| n; y; x; c |])
            (Tensor.get out [| n; y; x; c + 2 |])
        done
      done
    done
  done

let test_concat_shape_mismatch () =
  let net = Test_util.base_net ~batch:1 in
  let a = Layers.data_layer net ~name:"a" ~shape:[ 2; 2; 2 ] in
  let b = Layers.data_layer net ~name:"b" ~shape:[ 3; 2; 2 ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Layers.concat_channels net ~name:"cat" ~inputs:[ a; b ]);
       false
     with Invalid_argument _ -> true)

let grouped_net ~batch ~groups =
  let net = Test_util.base_net ~batch in
  let data = Layers.data_layer net ~name:"data" ~shape:[ 6; 6; 4 ] in
  let conv =
    Layers.convolution net ~name:"gconv" ~input:data ~n_filters:6 ~kernel:3
      ~stride:1 ~pad:1 ~groups ()
  in
  let fc = Layers.fully_connected net ~name:"fc" ~input:conv ~n_outputs:3 in
  Test_util.attach_loss net fc;
  (net, 3)

let test_grouped_conv_gradients () =
  let net, n_classes = grouped_net ~batch:2 ~groups:2 in
  let exec = Test_util.prepare net in
  Test_util.fill_inputs exec ~batch:2 ~n_classes;
  let rel =
    Test_util.gradient_check exec
      ~params:[ "gconv_g0.weights"; "gconv_g1.weights"; "gconv_g1.bias"; "fc.weights" ]
  in
  Alcotest.(check bool) (Printf.sprintf "param grads rel %g" rel) true (rel < 0.05);
  let drel = Test_util.data_gradient_check exec in
  Alcotest.(check bool) (Printf.sprintf "data grads rel %g" drel) true (drel < 0.05)

(* A grouped convolution must compute exactly what its groups compute on
   the corresponding channel slices. *)
let test_grouped_matches_sliced_convs () =
  let batch = 2 in
  let net, _ = grouped_net ~batch ~groups:2 in
  let exec = Test_util.prepare ~seed:3 net in
  let rng = Rng.create 55 in
  Tensor.fill_uniform rng (Executor.lookup exec "data.value") ~lo:(-1.0) ~hi:1.0;
  Tensor.fill (Executor.lookup exec "label") 0.0;
  Executor.forward exec;
  (* Reference: one plain conv per group on a pre-sliced input. *)
  List.iter
    (fun g ->
      let refnet = Test_util.base_net ~batch in
      let data = Layers.data_layer refnet ~name:"data" ~shape:[ 6; 6; 2 ] in
      let conv =
        Layers.convolution refnet ~name:"conv" ~input:data ~n_filters:3 ~kernel:3
          ~stride:1 ~pad:1 ()
      in
      let fc = Layers.fully_connected refnet ~name:"fc" ~input:conv ~n_outputs:3 in
      Test_util.attach_loss refnet fc;
      let refexec = Test_util.prepare ~seed:77 refnet in
      (* Copy group weights and the sliced input. *)
      Tensor.blit
        ~src:(Executor.lookup exec (Printf.sprintf "gconv_g%d.weights" g))
        ~dst:(Executor.lookup refexec "conv.weights");
      Tensor.blit
        ~src:(Executor.lookup exec (Printf.sprintf "gconv_g%d.bias" g))
        ~dst:(Executor.lookup refexec "conv.bias");
      let full = Executor.lookup exec "data.value" in
      let sliced = Executor.lookup refexec "data.value" in
      for n = 0 to batch - 1 do
        for y = 0 to 5 do
          for x = 0 to 5 do
            for c = 0 to 1 do
              Tensor.set sliced [| n; y; x; c |]
                (Tensor.get full [| n; y; x; (g * 2) + c |])
            done
          done
        done
      done;
      Executor.forward refexec;
      let expect = Executor.lookup refexec "conv.value" in
      let got = Executor.lookup exec "gconv.value" in
      for n = 0 to batch - 1 do
        for y = 0 to 5 do
          for x = 0 to 5 do
            for f = 0 to 2 do
              let e = Tensor.get expect [| n; y; x; f |] in
              let v = Tensor.get got [| n; y; x; (g * 3) + f |] in
              Alcotest.(check bool)
                (Printf.sprintf "g%d (%d,%d,%d,%d): %g vs %g" g n y x f e v)
                true
                (Float.abs (e -. v) < 1e-4)
            done
          done
        done
      done)
    [ 0; 1 ]

let test_groups_must_divide () =
  let net = Test_util.base_net ~batch:1 in
  let data = Layers.data_layer net ~name:"data" ~shape:[ 4; 4; 3 ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Layers.convolution net ~name:"c" ~input:data ~n_filters:4 ~kernel:3
            ~groups:2 ());
       false
     with Invalid_argument _ -> true)

let test_grouped_configs_agree () =
  let run config =
    let net, n_classes = grouped_net ~batch:2 ~groups:2 in
    let exec = Test_util.prepare ~config net in
    Test_util.fill_inputs exec ~batch:2 ~n_classes;
    Executor.forward exec;
    Executor.backward exec;
    ( Tensor.to_array (Executor.lookup exec "loss"),
      Tensor.to_array (Executor.lookup exec "gconv_g0.weights.grad") )
  in
  let l0, g0 = run Config.default in
  List.iter
    (fun config ->
      let l, g = run config in
      Alcotest.(check bool) "loss agrees" true
        (Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-4) l0 l);
      Alcotest.(check bool) "grad agrees" true
        (Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-3) g0 g))
    [ Config.unoptimized; Config.without [ "fuse" ] Config.default ]

let suite =
  [
    Alcotest.test_case "concat values" `Quick test_concat_values;
    Alcotest.test_case "concat shape mismatch" `Quick test_concat_shape_mismatch;
    Alcotest.test_case "grouped conv gradients" `Quick test_grouped_conv_gradients;
    Alcotest.test_case "grouped = sliced convs" `Quick test_grouped_matches_sliced_convs;
    Alcotest.test_case "groups must divide" `Quick test_groups_must_divide;
    Alcotest.test_case "grouped configs agree" `Quick test_grouped_configs_agree;
  ]
