(* Machine specs, cost model, and the distributed/accelerator
   simulators: sanity properties that the paper's qualitative claims
   rest on. *)

let small_prog config =
  let net = Test_util.base_net ~batch:4 in
  let data = Layers.data_layer net ~name:"data" ~shape:[ 16; 16; 3 ] in
  let conv =
    Layers.convolution net ~name:"conv" ~input:data ~n_filters:8 ~kernel:3
      ~stride:1 ~pad:1 ()
  in
  let r = Layers.relu net ~name:"r" ~input:conv in
  let pool = Layers.max_pooling net ~name:"pool" ~input:r ~kernel:2 () in
  let fc = Layers.fully_connected net ~name:"fc" ~input:pool ~n_outputs:10 in
  Test_util.attach_loss net fc;
  Pipeline.compile ~seed:1 config net

let test_peak_flops () =
  (* 36 cores x 2.3 GHz x 32 flops = 2649.6 GF. *)
  Alcotest.(check bool) "xeon peak" true
    (Float.abs (Machine.peak_gflops Machine.xeon_e5_2699v3 -. 2649.6) < 1.0)

let time_at ?vectorized cpu prog ~batch_mult =
  let bb = Cost_model.buf_bytes_of prog in
  let est ss =
    (Cost_model.estimate_sections ?vectorized ~replicate:batch_mult cpu
       ~buf_bytes:bb ss)
      .Cost_model.total_seconds
  in
  est prog.Program.forward +. est prog.Program.backward

let test_more_cores_faster () =
  let prog = small_prog Config.default in
  let t36 = time_at Machine.xeon_e5_2699v3 prog ~batch_mult:64.0 in
  let t1 = time_at Machine.xeon_e5_2699v3_1core prog ~batch_mult:64.0 in
  Alcotest.(check bool)
    (Printf.sprintf "36 cores faster (%.2e vs %.2e)" t36 t1)
    true (t36 < t1)

let test_vectorized_faster () =
  let prog = small_prog Config.unoptimized in
  let m = Machine.xeon_e5_2699v3 in
  let v = time_at ~vectorized:true m prog ~batch_mult:64.0 in
  let s = time_at ~vectorized:false m prog ~batch_mult:64.0 in
  Alcotest.(check bool) "simd faster" true (v < s)

let test_optimized_model_faster () =
  (* The modeled time of the fully optimized program must beat the
     unoptimized one — the Figure 13 direction. *)
  let t cfg = time_at Machine.xeon_e5_2699v3 (small_prog cfg) ~batch_mult:64.0 in
  let opt = t Config.default in
  let unopt =
    t (Config.with_flags ~passes:[ "simplify"; "parallelize" ] Config.unoptimized)
  in
  Alcotest.(check bool)
    (Printf.sprintf "optimized %.2e < unoptimized %.2e" opt unopt)
    true (opt < unopt)

let test_allreduce_time () =
  let nic = Machine.infiniband in
  Alcotest.(check (float 0.0)) "1 node free" 0.0
    (Cluster_sim.allreduce_seconds nic ~nodes:1 ~bytes:1e9);
  let t2 = Cluster_sim.allreduce_seconds nic ~nodes:2 ~bytes:1e6 in
  let t8 = Cluster_sim.allreduce_seconds nic ~nodes:8 ~bytes:1e6 in
  Alcotest.(check bool) "positive" true (t2 > 0.0);
  (* Ring allreduce total wire time grows slowly with node count. *)
  Alcotest.(check bool) "sublinear in nodes" true (t8 < 8.0 *. t2)

(* A model with a realistic compute/communication ratio for the cluster
   experiments: VGG at reduced but non-trivial scale, compiled at batch
   1 (the simulator scales compute to the local batch). *)
let cluster_prog =
  lazy
    (let spec =
       Models.vgg ~batch:1 ~scale:{ Models.image = 64; width_div = 2; fc_div = 2 }
     in
     Pipeline.compile ~seed:1 Config.default spec.Models.net)

let test_strong_scaling_shape () =
  let prog = Lazy.force cluster_prog in
  let results =
    Cluster_sim.strong_scaling ~cpu:Machine.cori_node ~nic:Machine.aries ~prog
      ~global_batch:512 ~nodes_list:[ 1; 2; 4; 8; 16; 32; 64 ]
  in
  let tput = List.map (fun (r : Cluster_sim.result) -> r.images_per_second) results in
  (* Throughput must increase while compute dominates (through 8 nodes
     for this reduced model) and efficiency degrades gracefully -- the
     Figure 18 shape. *)
  let rec increasing = function
    | a :: b :: rest -> a < b && increasing (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "throughput increases through 8 nodes" true
    (increasing [ List.nth tput 0; List.nth tput 1; List.nth tput 2; List.nth tput 3 ]);
  let t1 = List.hd tput and t64 = List.nth tput 6 in
  let eff = t64 /. (64.0 *. t1) in
  Alcotest.(check bool) (Printf.sprintf "efficiency %.2f in (0.05, 1.0]" eff) true
    (eff > 0.05 && eff <= 1.0001)

let test_weak_scaling_efficiency () =
  let prog = Lazy.force cluster_prog in
  let results =
    Cluster_sim.weak_scaling ~cpu:Machine.commodity_node ~nic:Machine.infiniband
      ~prog ~per_node_batch:64 ~nodes_list:[ 1; 32 ]
  in
  match results with
  | [ r1; r32 ] ->
      let eff =
        r32.Cluster_sim.images_per_second
        /. (32.0 *. r1.Cluster_sim.images_per_second)
      in
      (* The paper reports 84% strong-scaling efficiency at 32 nodes and
         near-linear weak scaling. *)
      Alcotest.(check bool) (Printf.sprintf "weak efficiency %.2f > 0.7" eff) true
        (eff > 0.7)
  | _ -> Alcotest.fail "expected two results"

let test_overlap_beats_no_overlap () =
  let prog = small_prog Config.default in
  let with_overlap =
    Cluster_sim.simulate_step ~cpu:Machine.cori_node ~nic:Machine.aries ~nodes:16
      ~local_batch:32 ~prog ()
  in
  let without =
    Cluster_sim.simulate_step ~cpu:Machine.cori_node ~nic:Machine.aries ~nodes:16
      ~local_batch:32 ~prog ~overlap:false ()
  in
  Alcotest.(check bool) "overlap never slower" true
    (with_overlap.Cluster_sim.step_seconds
    <= without.Cluster_sim.step_seconds +. 1e-12)

let test_accelerators_add_throughput () =
  let prog = small_prog Config.default in
  let run n =
    (Accel_sim.simulate ~host:Machine.xeon_e5_2699v3 ~accel:Machine.xeon_phi_7110p
       ~n_accel:n ~prog ~batch:256
       ~bytes_per_item:(float_of_int (16 * 16 * 3 * 4))
       ~grad_bytes:1e6)
      .Accel_sim.images_per_second
  in
  let t0 = run 0 and t1 = run 1 and t2 = run 2 in
  Alcotest.(check bool) (Printf.sprintf "1 card helps (%.0f -> %.0f)" t0 t1) true
    (t1 > t0);
  Alcotest.(check bool) (Printf.sprintf "2 cards help (%.0f -> %.0f)" t1 t2) true
    (t2 > t1);
  (* Each card adds a bounded increment, not superlinear. *)
  Alcotest.(check bool) "sublinear" true (t2 < 3.0 *. t0)

let test_chunk_search_bounds () =
  let prog = small_prog Config.default in
  let r =
    Accel_sim.simulate ~host:Machine.xeon_e5_2699v3 ~accel:Machine.xeon_phi_7110p
      ~n_accel:2 ~prog ~batch:128
      ~bytes_per_item:(float_of_int (16 * 16 * 3 * 4))
      ~grad_bytes:1e6
  in
  Alcotest.(check bool) "chunk multiple of 16" true (r.Accel_sim.chunk mod 16 = 0);
  Alcotest.(check bool) "host items non-negative" true (r.Accel_sim.host_items >= 0);
  Alcotest.(check int) "partition" 128 (r.Accel_sim.host_items + (2 * r.Accel_sim.chunk))

let suite =
  [
    Alcotest.test_case "peak flops" `Quick test_peak_flops;
    Alcotest.test_case "more cores faster" `Quick test_more_cores_faster;
    Alcotest.test_case "vectorized faster" `Quick test_vectorized_faster;
    Alcotest.test_case "optimized model faster" `Quick test_optimized_model_faster;
    Alcotest.test_case "allreduce time" `Quick test_allreduce_time;
    Alcotest.test_case "strong scaling shape" `Quick test_strong_scaling_shape;
    Alcotest.test_case "weak scaling efficiency" `Quick test_weak_scaling_efficiency;
    Alcotest.test_case "overlap beats no-overlap" `Quick test_overlap_beats_no_overlap;
    Alcotest.test_case "accelerators add throughput" `Quick test_accelerators_add_throughput;
    Alcotest.test_case "chunk search bounds" `Quick test_chunk_search_bounds;
  ]
