(* Buffer pool and executor behaviors. *)

let test_alloc_lookup () =
  let p = Buffer_pool.create () in
  let t = Buffer_pool.alloc p "a" (Shape.create [ 2; 3 ]) in
  Alcotest.(check bool) "same tensor" true (Buffer_pool.lookup p "a" == t);
  Alcotest.(check bool) "mem" true (Buffer_pool.mem p "a");
  Alcotest.(check bool) "not mem" false (Buffer_pool.mem p "b")

let test_duplicate_rejected () =
  let p = Buffer_pool.create () in
  ignore (Buffer_pool.alloc p "a" (Shape.create [ 1 ]));
  Alcotest.(check bool) "raises" true
    (try
       ignore (Buffer_pool.alloc p "a" (Shape.create [ 1 ]));
       false
     with Invalid_argument _ -> true)

let test_alias_shares_storage () =
  let p = Buffer_pool.create () in
  let a = Buffer_pool.alloc p "a" (Shape.create [ 6 ]) in
  let v = Buffer_pool.alias p "view" ~target:"a" ~shape:(Shape.create [ 2; 3 ]) in
  Tensor.set1 a 4 9.0;
  Alcotest.(check (float 0.0)) "shared" 9.0 (Tensor.get v [| 1; 1 |]);
  Alcotest.(check string) "physical" "a" (Buffer_pool.physical p "view");
  (* Alias of alias follows to the root allocation. *)
  ignore (Buffer_pool.alias p "view2" ~target:"view" ~shape:(Shape.create [ 6 ]));
  Alcotest.(check string) "chained physical" "a" (Buffer_pool.physical p "view2")

let test_total_bytes_dedup () =
  let p = Buffer_pool.create () in
  ignore (Buffer_pool.alloc p "a" (Shape.create [ 10 ]));
  ignore (Buffer_pool.alias p "v" ~target:"a" ~shape:(Shape.create [ 10 ]));
  ignore (Buffer_pool.alloc p "b" (Shape.create [ 5 ]));
  Alcotest.(check int) "bytes" (4 * 15) (Buffer_pool.total_bytes p)

let test_unknown_lookup () =
  let p = Buffer_pool.create () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Buffer_pool.lookup p "missing");
       false
     with Failure _ -> true)

let test_names_order () =
  let p = Buffer_pool.create () in
  List.iter (fun n -> ignore (Buffer_pool.alloc p n (Shape.create [ 1 ]))) [ "x"; "y"; "z" ];
  Alcotest.(check (list string)) "order" [ "x"; "y"; "z" ] (Buffer_pool.names p)

(* Executor section timing: labels must match the program's sections. *)
let test_section_timing_labels () =
  let net = Test_util.base_net ~batch:2 in
  let data = Layers.data_layer net ~name:"data" ~shape:[ 4 ] in
  let fc = Layers.fully_connected net ~name:"fc" ~input:data ~n_outputs:3 in
  Test_util.attach_loss net fc;
  let prog = Pipeline.compile Config.default net in
  let exec = Executor.prepare prog in
  let timed = Executor.forward_timed exec in
  Alcotest.(check (list string)) "labels"
    (List.map (fun (s : Program.section) -> s.Program.label) prog.Program.forward)
    (List.map fst timed);
  List.iter (fun (_, t) -> Alcotest.(check bool) "nonneg" true (t >= 0.0)) timed

let test_program_flops_positive () =
  let net = Test_util.base_net ~batch:2 in
  let data = Layers.data_layer net ~name:"data" ~shape:[ 4 ] in
  let fc = Layers.fully_connected net ~name:"fc" ~input:data ~n_outputs:3 in
  Test_util.attach_loss net fc;
  let prog = Pipeline.compile Config.default net in
  let f = Program.flops prog `Forward and b = Program.flops prog `Backward in
  (* FC forward: 2 * batch * out * in = 48 flops for the GEMM alone. *)
  Alcotest.(check bool) (Printf.sprintf "fwd flops %g >= 48" f) true (f >= 48.0);
  Alcotest.(check bool) (Printf.sprintf "bwd flops %g > fwd" b) true (b > f)

let test_memory_savings_from_aliasing () =
  (* In-place activations and alias inputs must reduce real storage. *)
  let build () =
    let net = Test_util.base_net ~batch:4 in
    let data = Layers.data_layer net ~name:"data" ~shape:[ 8; 8; 4 ] in
    let conv =
      Layers.convolution net ~name:"conv" ~input:data ~n_filters:8 ~kernel:3
        ~stride:1 ~pad:1 ()
    in
    let r = Layers.relu net ~name:"r" ~input:conv in
    let fc = Layers.fully_connected net ~name:"fc" ~input:r ~n_outputs:4 in
    Test_util.attach_loss net fc;
    net
  in
  let with_ = Pipeline.compile Config.default (build ()) in
  let without =
    Pipeline.compile
      (Config.without [ "layout" ] Config.default)
      (build ())
  in
  Alcotest.(check bool) "in-place saves memory" true
    (Buffer_pool.total_bytes with_.Program.buffers
    < Buffer_pool.total_bytes without.Program.buffers)

let suite =
  [
    Alcotest.test_case "alloc/lookup" `Quick test_alloc_lookup;
    Alcotest.test_case "duplicate rejected" `Quick test_duplicate_rejected;
    Alcotest.test_case "alias shares storage" `Quick test_alias_shares_storage;
    Alcotest.test_case "total bytes dedup" `Quick test_total_bytes_dedup;
    Alcotest.test_case "unknown lookup" `Quick test_unknown_lookup;
    Alcotest.test_case "names order" `Quick test_names_order;
    Alcotest.test_case "section timing labels" `Quick test_section_timing_labels;
    Alcotest.test_case "program flops" `Quick test_program_flops_positive;
    Alcotest.test_case "aliasing saves memory" `Quick test_memory_savings_from_aliasing;
  ]
