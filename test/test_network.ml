(* End-to-end network tests: finite-difference gradient checks for every
   layer type, and agreement of the compiled program across all
   optimization configurations. *)

let check_grad ?(tol = 0.02) name build params =
  let batch = 2 in
  let net, n_classes = build ~batch in
  let exec = Test_util.prepare net in
  Test_util.fill_inputs exec ~batch ~n_classes;
  let rel = Test_util.gradient_check exec ~params in
  Alcotest.(check bool) (Printf.sprintf "%s param grads (rel %g)" name rel) true
    (rel < tol);
  let drel = Test_util.data_gradient_check exec in
  Alcotest.(check bool) (Printf.sprintf "%s data grads (rel %g)" name drel) true
    (drel < tol)

let fc_net ~batch =
  let net = Test_util.base_net ~batch in
  let data = Layers.data_layer net ~name:"data" ~shape:[ 6 ] in
  let fc1 = Layers.fully_connected net ~name:"fc1" ~input:data ~n_outputs:5 in
  let r = Layers.relu net ~name:"r" ~input:fc1 in
  let fc2 = Layers.fully_connected net ~name:"fc2" ~input:r ~n_outputs:3 in
  Test_util.attach_loss net fc2;
  (net, 3)

let test_fc_grads () = check_grad "fc" fc_net [ "fc1.weights"; "fc1.bias"; "fc2.weights" ]

let conv_net pool_kind ~batch =
  let net = Test_util.base_net ~batch in
  let data = Layers.data_layer net ~name:"data" ~shape:[ 6; 6; 2 ] in
  let conv =
    Layers.convolution net ~name:"conv" ~input:data ~n_filters:3 ~kernel:3
      ~stride:1 ~pad:1 ()
  in
  let r = Layers.relu net ~name:"r" ~input:conv in
  let pool =
    match pool_kind with
    | `Max -> Layers.max_pooling net ~name:"pool" ~input:r ~kernel:2 ()
    | `Avg -> Layers.avg_pooling net ~name:"pool" ~input:r ~kernel:2 ()
  in
  let fc = Layers.fully_connected net ~name:"fc" ~input:pool ~n_outputs:3 in
  Test_util.attach_loss net fc;
  (net, 3)

let test_conv_maxpool_grads () =
  check_grad "conv+maxpool" (conv_net `Max) [ "conv.weights"; "conv.bias"; "fc.weights" ]

let test_conv_avgpool_grads () =
  check_grad "conv+avgpool" (conv_net `Avg) [ "conv.weights"; "fc.weights" ]

let test_strided_conv_grads () =
  let build ~batch =
    let net = Test_util.base_net ~batch in
    let data = Layers.data_layer net ~name:"data" ~shape:[ 7; 7; 1 ] in
    let conv =
      Layers.convolution net ~name:"conv" ~input:data ~n_filters:2 ~kernel:3
        ~stride:2 ~pad:0 ()
    in
    let fc = Layers.fully_connected net ~name:"fc" ~input:conv ~n_outputs:3 in
    Test_util.attach_loss net fc;
    (net, 3)
  in
  check_grad "strided conv" build [ "conv.weights"; "fc.weights" ]

let activation_net act ~batch =
  let net = Test_util.base_net ~batch in
  let data = Layers.data_layer net ~name:"data" ~shape:[ 5 ] in
  let fc1 = Layers.fully_connected net ~name:"fc1" ~input:data ~n_outputs:6 in
  let a =
    match act with
    | `Sigmoid -> Layers.sigmoid net ~name:"act" ~input:fc1
    | `Tanh -> Layers.tanh_layer net ~name:"act" ~input:fc1
  in
  let fc2 = Layers.fully_connected net ~name:"fc2" ~input:a ~n_outputs:3 in
  Test_util.attach_loss net fc2;
  (net, 3)

let test_sigmoid_grads () =
  check_grad "sigmoid" (activation_net `Sigmoid) [ "fc1.weights"; "fc2.weights" ]

let test_tanh_grads () =
  check_grad "tanh" (activation_net `Tanh) [ "fc1.weights"; "fc2.weights" ]

let test_lrn_grads () =
  let build ~batch =
    let net = Test_util.base_net ~batch in
    let data = Layers.data_layer net ~name:"data" ~shape:[ 4; 4; 6 ] in
    let conv =
      Layers.convolution net ~name:"conv" ~input:data ~n_filters:6 ~kernel:3
        ~stride:1 ~pad:1 ()
    in
    let l = Layers.lrn net ~name:"lrn" ~input:conv ~size:5 ~alpha:0.1 ~beta:0.75 () in
    let fc = Layers.fully_connected net ~name:"fc" ~input:l ~n_outputs:3 in
    Test_util.attach_loss net fc;
    (net, 3)
  in
  check_grad "lrn" build [ "conv.weights"; "fc.weights" ]

let test_batchnorm_grads () =
  let build ~batch =
    let net = Test_util.base_net ~batch in
    let data = Layers.data_layer net ~name:"data" ~shape:[ 8 ] in
    let fc1 = Layers.fully_connected net ~name:"fc1" ~input:data ~n_outputs:6 in
    let bn = Layers.batch_norm net ~name:"bn" ~input:fc1 () in
    let fc2 = Layers.fully_connected net ~name:"fc2" ~input:bn ~n_outputs:3 in
    Test_util.attach_loss net fc2;
    (net, 3)
  in
  check_grad ~tol:0.05 "batchnorm" build [ "fc1.weights"; "fc2.weights" ]

let test_add_mul_neuron_grads () =
  (* The LSTM building blocks: elementwise add and mul of two ensembles
     (Figure 6's +, * math ensembles). *)
  let build ~batch =
    let net = Test_util.base_net ~batch in
    let data = Layers.data_layer net ~name:"data" ~shape:[ 6 ] in
    let a = Layers.fully_connected net ~name:"fa" ~input:data ~n_outputs:5 in
    let b = Layers.fully_connected net ~name:"fb" ~input:data ~n_outputs:5 in
    let sum = Net.add net (Ensemble.create ~name:"sum" ~shape:[ 5 ] (Ensemble.Compute Neuron.add2)) in
    Net.add_connections net ~source:a ~sink:sum (Mapping.one_to_one ~rank:1);
    Net.add_connections net ~source:b ~sink:sum (Mapping.one_to_one ~rank:1);
    let prod = Net.add net (Ensemble.create ~name:"prod" ~shape:[ 5 ] (Ensemble.Compute Neuron.mul2)) in
    Net.add_connections net ~source:sum ~sink:prod (Mapping.one_to_one ~rank:1);
    Net.add_connections net ~source:a ~sink:prod (Mapping.one_to_one ~rank:1);
    let fc = Layers.fully_connected net ~name:"fc" ~input:prod ~n_outputs:3 in
    Test_util.attach_loss net fc;
    (net, 3)
  in
  check_grad "add/mul neurons" build [ "fa.weights"; "fb.weights"; "fc.weights" ]

let test_general_mapping_grads () =
  (* A gather connection through an arbitrary mapping function (the
     paper's fully general case): reversal of the input vector. *)
  let build ~batch =
    let net = Test_util.base_net ~batch in
    let data = Layers.data_layer net ~name:"data" ~shape:[ 6 ] in
    let rev = Mapping.General (fun sink -> [| (5 - sink.(0), 6 - sink.(0)) |]) in
    let mirror =
      Net.add net (Ensemble.create ~name:"mirror" ~shape:[ 6 ] (Ensemble.Compute Neuron.relu))
    in
    Net.add_connections net ~source:data ~sink:mirror rev;
    let fc = Layers.fully_connected net ~name:"fc" ~input:mirror ~n_outputs:3 in
    Test_util.attach_loss net fc;
    (net, 3)
  in
  check_grad "general mapping" build [ "fc.weights" ]

(* Agreement of outputs across all optimization configurations. *)
let config_variants =
  [
    ("default", Config.default);
    ("unoptimized", Config.unoptimized);
    ("gemm only", Config.with_flags ~passes:[ "gemm"; "simplify" ] Config.unoptimized);
    ("no fusion", Config.without [ "fuse" ] Config.default);
    ("no tiling", Config.without [ "tile"; "fuse" ] Config.default);
    ("no hoist", Config.without [ "batch-gemm" ] Config.default);
    ("no inplace", Config.without [ "layout" ] Config.default);
    ("tile 1", Config.with_flags ~tile_size:1 Config.default);
    ("tile 8", Config.with_flags ~tile_size:8 Config.default);
  ]

let test_config_agreement () =
  let batch = 3 in
  let results =
    List.map
      (fun (name, config) ->
        let net, n_classes = conv_net `Max ~batch in
        let exec = Test_util.prepare ~config net in
        Test_util.fill_inputs exec ~batch ~n_classes;
        Executor.forward exec;
        Executor.backward exec;
        let loss = Tensor.to_array (Executor.lookup exec "loss") in
        let wg = Tensor.to_array (Executor.lookup exec "conv.weights.grad") in
        (name, loss, wg))
      config_variants
  in
  match results with
  | [] -> ()
  | (_, loss0, wg0) :: rest ->
      List.iter
        (fun (name, loss, wg) ->
          Array.iteri
            (fun i l ->
              Alcotest.(check (float 1e-4)) (name ^ " loss " ^ string_of_int i)
                loss0.(i) l)
            loss;
          Array.iteri
            (fun i g ->
              Alcotest.(check (float 1e-3)) (name ^ " wgrad " ^ string_of_int i)
                wg0.(i) g)
            wg)
        rest

let test_forward_idempotent () =
  (* Running forward twice must give identical results (accumulation
     buffers are reset each pass). *)
  let batch = 2 in
  let net, n_classes = conv_net `Max ~batch in
  let exec = Test_util.prepare net in
  Test_util.fill_inputs exec ~batch ~n_classes;
  Executor.forward exec;
  let first = Tensor.to_array (Executor.lookup exec "sl.value") in
  Executor.forward exec;
  let second = Tensor.to_array (Executor.lookup exec "sl.value") in
  Alcotest.(check bool) "idempotent" true (first = second)

let test_backward_idempotent () =
  let batch = 2 in
  let net, n_classes = conv_net `Max ~batch in
  let exec = Test_util.prepare net in
  Test_util.fill_inputs exec ~batch ~n_classes;
  Executor.forward exec;
  Executor.backward exec;
  let first = Tensor.to_array (Executor.lookup exec "conv.weights.grad") in
  Executor.backward exec;
  let second = Tensor.to_array (Executor.lookup exec "conv.weights.grad") in
  Alcotest.(check bool) "idempotent" true (first = second)

let test_softmax_probabilities () =
  let batch = 2 in
  let net, n_classes = fc_net ~batch in
  let exec = Test_util.prepare net in
  Test_util.fill_inputs exec ~batch ~n_classes;
  Executor.forward exec;
  let probs = Executor.lookup exec "sl.value" in
  for b = 0 to batch - 1 do
    let s = ref 0.0 in
    for c = 0 to 2 do
      let p = Tensor.get probs [| b; c |] in
      Alcotest.(check bool) "p in [0,1]" true (p >= 0.0 && p <= 1.0);
      s := !s +. p
    done;
    Alcotest.(check (float 1e-4)) "sums to 1" 1.0 !s
  done

let test_dropout_mask_properties () =
  let batch = 4 in
  let net = Test_util.base_net ~batch in
  let data = Layers.data_layer net ~name:"data" ~shape:[ 50 ] in
  let d = Layers.dropout net ~name:"drop" ~input:data ~ratio:0.5 () in
  let fc = Layers.fully_connected net ~name:"fc" ~input:d ~n_outputs:3 in
  Test_util.attach_loss net fc;
  let exec = Test_util.prepare net in
  let input = Executor.lookup exec "data.value" in
  Tensor.fill input 1.0;
  let labels = Executor.lookup exec "label" in
  Tensor.fill labels 0.0;
  Executor.forward exec;
  let out = Executor.lookup exec "drop.value" in
  let zeros = ref 0 and scaled = ref 0 and other = ref 0 in
  Tensor.iteri
    (fun _ v ->
      if v = 0.0 then incr zeros
      else if Float.abs (v -. 2.0) < 1e-5 then incr scaled
      else incr other)
    out;
  Alcotest.(check int) "only 0 or 1/keep" 0 !other;
  let total = !zeros + !scaled in
  let ratio = float_of_int !zeros /. float_of_int total in
  Alcotest.(check bool) "about half dropped" true (ratio > 0.3 && ratio < 0.7)

let suite =
  [
    Alcotest.test_case "fc gradients" `Quick test_fc_grads;
    Alcotest.test_case "conv+maxpool gradients" `Quick test_conv_maxpool_grads;
    Alcotest.test_case "conv+avgpool gradients" `Quick test_conv_avgpool_grads;
    Alcotest.test_case "strided conv gradients" `Quick test_strided_conv_grads;
    Alcotest.test_case "sigmoid gradients" `Quick test_sigmoid_grads;
    Alcotest.test_case "tanh gradients" `Quick test_tanh_grads;
    Alcotest.test_case "lrn gradients" `Quick test_lrn_grads;
    Alcotest.test_case "batchnorm gradients" `Quick test_batchnorm_grads;
    Alcotest.test_case "add/mul neuron gradients" `Quick test_add_mul_neuron_grads;
    Alcotest.test_case "general mapping gradients" `Quick test_general_mapping_grads;
    Alcotest.test_case "config agreement" `Quick test_config_agreement;
    Alcotest.test_case "forward idempotent" `Quick test_forward_idempotent;
    Alcotest.test_case "backward idempotent" `Quick test_backward_idempotent;
    Alcotest.test_case "softmax probabilities" `Quick test_softmax_probabilities;
    Alcotest.test_case "dropout mask" `Quick test_dropout_mask_properties;
  ]
