(* Ablations of the design choices DESIGN.md calls out, beyond the
   paper's own figures. *)

open Bench_common

let fresh () =
  let net = Net.create ~batch_size:2 in
  Net.add_external net ~name:"label" ~item_shape:[];
  Net.add_external net ~name:"loss" ~item_shape:[];
  let data = Layers.data_layer net ~name:"data" ~shape:[ 32; 32; 3 ] in
  let conv1 =
    Layers.convolution net ~name:"conv1" ~input:data ~n_filters:8 ~kernel:3
      ~stride:1 ~pad:1 ()
  in
  let r1 = Layers.relu net ~name:"relu1" ~input:conv1 in
  let pool1 = Layers.max_pooling net ~name:"pool1" ~input:r1 ~kernel:2 () in
  let conv2 =
    Layers.convolution net ~name:"conv2" ~input:pool1 ~n_filters:16 ~kernel:3
      ~stride:1 ~pad:1 ()
  in
  let r2 = Layers.relu net ~name:"relu2" ~input:conv2 in
  let pool2 = Layers.max_pooling net ~name:"pool2" ~input:r2 ~kernel:2 () in
  let fc = Layers.fully_connected net ~name:"fc" ~input:pool2 ~n_outputs:10 in
  ignore
    (Layers.softmax_loss net ~name:"sl" ~input:fc ~label_buf:"label"
       ~loss_buf:"loss");
  net

let flag_ablation () =
  header "Ablation: individual optimization flags (measured, 1 core)";
  let base, _ = measure_latte ~config:Config.default (fresh ()) in
  Printf.printf "  %-38s %10s  %10s\n" "" "fwd slowdn" "bwd slowdn";
  List.iter
    (fun (name, config) ->
      let m, _ = measure_latte ~config (fresh ()) in
      row name [ m.fwd /. base.fwd; m.bwd /. base.bwd ])
    [
      ("all optimizations (reference)", Config.default);
      ("- gemm pattern matching", Config.without [ "gemm"; "batch-gemm" ] Config.default);
      ("- batch-gemm hoisting", Config.without [ "batch-gemm" ] Config.default);
      ("- cross-layer fusion", Config.without [ "fuse" ] Config.default);
      ("- tiling (and fusion)", Config.without [ "tile"; "fuse" ] Config.default);
      ("- in-place activations", Config.without [ "layout" ] Config.default);
      ("nothing", Config.unoptimized);
    ]

let tile_sweep () =
  header "Ablation: tile size sweep (measured fwd+bwd seconds, 1 core)";
  Printf.printf "  %-38s %10s\n" "" "seconds";
  List.iter
    (fun ts ->
      let m, _ =
        measure_latte ~config:(Config.with_flags ~tile_size:ts Config.default) (fresh ())
      in
      row (Printf.sprintf "tile_size = %d" ts) [ both m ])
    [ 1; 2; 4; 8; 16 ]

let overlap_ablation () =
  header "Ablation: asynchronous gradient overlap (simulated, 32 nodes)";
  let spec = Models.vgg ~batch:1 ~scale:{ Models.image = 112; width_div = 1; fc_div = 2 } in
  let prog = Pipeline.compile ~seed:1 Config.default spec.Models.net in
  let run overlap =
    Cluster_sim.simulate_step ~cpu:Machine.cori_node ~nic:Machine.aries ~nodes:32
      ~local_batch:16 ~prog ~overlap ()
  in
  let w = run true and wo = run false in
  Printf.printf "  %-38s %10s  %10s\n" "" "step (s)" "exposed (s)";
  row "async overlap (paper, section 5.3)"
    [ w.Cluster_sim.step_seconds; w.Cluster_sim.exposed_comm_seconds ];
  row "synchronize after backward"
    [ wo.Cluster_sim.step_seconds; wo.Cluster_sim.exposed_comm_seconds ]

let grouped_conv_ablation () =
  header "Ablation: grouped convolution (AlexNet conv2/4/5, modeled 36 cores)";
  let t groups =
    let spec =
      Models.alexnet ~batch:8
        ~scale:{ Models.image = 64; width_div = 2; fc_div = 4 }
        ~groups ()
    in
    modeled_time Machine.xeon_e5_2699v3 Config.default spec.Models.net `Both
  in
  let g1 = t 1 and g2 = t 2 in
  Printf.printf "  %-38s %10s\n" "" "seconds";
  row "groups = 1" [ g1 ];
  row "groups = 2 (paper AlexNet)" [ g2 ];
  note "grouping halves each conv's GEMM k dimension (fewer flops),";
  note "at the cost of extra concat copies"

let pass_instrumentation () =
  header "Pass-manager instrumentation (conv net, per-pass compile cost)";
  let _, report = Pass_manager.run Config.default (fresh ()) in
  Printf.printf "  %-14s %-4s %9s  %s\n" "pass" "on" "ms" "IR census";
  List.iter
    (fun (o : Pass_manager.outcome) ->
      Printf.printf "  %-14s %-4s %9.3f  %s\n" o.Pass_manager.info.Pass.name
        (if o.Pass_manager.enabled then "on" else "off")
        (o.Pass_manager.seconds *. 1e3)
        (Ir_stats.to_string o.Pass_manager.stats))
    report.Pass_manager.outcomes;
  Printf.printf "  total compile: %.3f ms\n"
    (report.Pass_manager.total_seconds *. 1e3)

let run () =
  flag_ablation ();
  tile_sweep ();
  overlap_ablation ();
  grouped_conv_ablation ();
  pass_instrumentation ()
