(* Whole-compiler property tests: random architectures must produce the
   same values and gradients under every optimization configuration and
   must agree with the Caffe-like baseline. This is the strongest
   guardrail on the optimizer — any unsound fusion/tiling/pattern-match
   rewrite shows up here. *)

type arch = {
  image : int;
  channels : int;
  blocks : (int * int * int * int) list;  (* filters, kernel, stride, pad *)
  pools : bool list;  (* pool after block i? *)
  fc : int;
  seed : int;
}

let arch_gen =
  let open QCheck.Gen in
  let* image = oneofl [ 6; 8; 12 ] in
  let* channels = int_range 1 3 in
  let* n_blocks = int_range 1 2 in
  let* blocks =
    list_repeat n_blocks
      (let* filters = int_range 2 5 in
       let* kernel = oneofl [ 1; 3 ] in
       let* pad = if kernel = 3 then oneofl [ 0; 1 ] else return 0 in
       return (filters, kernel, 1, pad))
  in
  let* pools = list_repeat n_blocks bool in
  let* fc = int_range 2 6 in
  let* seed = int_range 1 10000 in
  return { image; channels; blocks; pools; fc; seed }

let build_arch a ~batch =
  let net = Net.create ~batch_size:batch in
  Net.add_external net ~name:"label" ~item_shape:[];
  Net.add_external net ~name:"loss" ~item_shape:[];
  let data =
    Layers.data_layer net ~name:"data" ~shape:[ a.image; a.image; a.channels ]
  in
  let cur = ref data in
  List.iteri
    (fun i ((filters, kernel, stride, pad), pool) ->
      let conv =
        Layers.convolution net
          ~name:(Printf.sprintf "conv%d" i)
          ~input:!cur ~n_filters:filters ~kernel ~stride ~pad ()
      in
      let r = Layers.relu net ~name:(Printf.sprintf "relu%d" i) ~input:conv in
      cur := r;
      if pool && (!cur).Ensemble.shape.(0) >= 2 then
        cur := Layers.max_pooling net ~name:(Printf.sprintf "pool%d" i) ~input:r ~kernel:2 ())
    (List.combine a.blocks a.pools);
  let fc = Layers.fully_connected net ~name:"fc" ~input:!cur ~n_outputs:a.fc in
  ignore
    (Layers.softmax_loss net ~name:"sl" ~input:fc ~label_buf:"label"
       ~loss_buf:"loss");
  net

let arch_fits a =
  (* Reject architectures whose spatial size collapses. *)
  try
    let net = build_arch a ~batch:1 in
    ignore (Net.topo_order net);
    true
  with _ -> false

let run_latte a config =
  let batch = 2 in
  let net = build_arch a ~batch in
  let exec = Executor.prepare (Pipeline.compile ~seed:a.seed config net) in
  let rng = Rng.create a.seed in
  Tensor.fill_uniform rng (Executor.lookup exec "data.value") ~lo:(-1.0) ~hi:1.0;
  let labels = Executor.lookup exec "label" in
  for b = 0 to batch - 1 do
    Tensor.set1 labels b (float_of_int (b mod a.fc))
  done;
  Executor.forward exec;
  Executor.backward exec;
  (exec, net)

let close a b = Tensor.max_abs_diff a b < 1e-3

let prop_configs_agree =
  QCheck.Test.make ~count:25 ~name:"random nets: all configs agree"
    (QCheck.make arch_gen) (fun a ->
      QCheck.assume (arch_fits a);
      let reference, _ = run_latte a Config.default in
      let ref_loss = Tensor.copy (Executor.lookup reference "loss") in
      let ref_grad = Tensor.copy (Executor.lookup reference "conv0.weights.grad") in
      List.for_all
        (fun config ->
          let exec, _ = run_latte a config in
          close ref_loss (Executor.lookup exec "loss")
          && close ref_grad (Executor.lookup exec "conv0.weights.grad"))
        [
          Config.unoptimized;
          Config.without [ "fuse" ] Config.default;
          Config.without [ "tile"; "fuse" ] Config.default;
          Config.without [ "batch-gemm" ] Config.default;
          Config.without [ "layout" ] Config.default;
          Config.with_flags ~tile_size:1 Config.default;
        ])

let prop_matches_caffe =
  QCheck.Test.make ~count:25 ~name:"random nets: latte = caffe baseline"
    (QCheck.make arch_gen) (fun a ->
      QCheck.assume (arch_fits a);
      let exec, net = run_latte a Config.default in
      let caffe = Caffe_like.of_net ~params_from:exec net in
      let rng = Rng.create a.seed in
      Tensor.fill_uniform rng (Caffe_like.lookup caffe "data.value") ~lo:(-1.0)
        ~hi:1.0;
      let labels = Caffe_like.lookup caffe "label" in
      for b = 0 to 1 do
        Tensor.set1 labels b (float_of_int (b mod a.fc))
      done;
      Caffe_like.forward caffe;
      Caffe_like.backward caffe;
      close (Executor.lookup exec "loss") (Caffe_like.lookup caffe "loss")
      && close
           (Executor.lookup exec "conv0.weights.grad")
           (Caffe_like.lookup caffe "conv0.weights.grad")
      && close
           (Executor.lookup exec "fc.weights.grad")
           (Caffe_like.lookup caffe "fc.weights.grad"))

let prop_forward_deterministic =
  QCheck.Test.make ~count:10 ~name:"random nets: forward deterministic"
    (QCheck.make arch_gen) (fun a ->
      QCheck.assume (arch_fits a);
      let exec, _ = run_latte a Config.default in
      let first = Tensor.copy (Executor.lookup exec "sl.value") in
      Executor.forward exec;
      close first (Executor.lookup exec "sl.value"))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_configs_agree;
    QCheck_alcotest.to_alcotest prop_matches_caffe;
    QCheck_alcotest.to_alcotest prop_forward_deterministic;
  ]
