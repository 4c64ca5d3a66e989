(* Checkpoint save/load round trips, including across optimization
   configurations. *)

let build () =
  let net = Test_util.base_net ~batch:2 in
  let data = Layers.data_layer net ~name:"data" ~shape:[ 6; 6; 2 ] in
  let conv =
    Layers.convolution net ~name:"conv" ~input:data ~n_filters:3 ~kernel:3
      ~stride:1 ~pad:1 ()
  in
  let fc = Layers.fully_connected net ~name:"fc" ~input:conv ~n_outputs:3 in
  Test_util.attach_loss net fc;
  net

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_roundtrip () =
  let exec = Test_util.prepare ~seed:5 (build ()) in
  let path = tmp "latte_ckpt_roundtrip.bin" in
  Checkpoint.save exec path;
  let w = Executor.lookup exec "conv.weights" in
  let original = Tensor.copy w in
  Tensor.fill w 0.0;
  Checkpoint.load exec path;
  Alcotest.(check bool) "restored" true (Tensor.approx_equal original w);
  Sys.remove path

let test_cross_config () =
  (* A checkpoint from a fully-optimized program restores into an
     unoptimized one and produces identical outputs. *)
  let exec1 = Test_util.prepare ~seed:5 (build ()) in
  Test_util.fill_inputs exec1 ~batch:2 ~n_classes:3;
  Executor.forward exec1;
  let expected = Tensor.copy (Executor.lookup exec1 "loss") in
  let path = tmp "latte_ckpt_cross.bin" in
  Checkpoint.save exec1 path;
  let exec2 = Test_util.prepare ~seed:99 ~config:Config.unoptimized (build ()) in
  Checkpoint.load exec2 path;
  Test_util.fill_inputs exec2 ~batch:2 ~n_classes:3;
  Executor.forward exec2;
  Alcotest.(check bool) "same loss after transfer" true
    (Tensor.approx_equal ~tol:1e-4 expected (Executor.lookup exec2 "loss"));
  Sys.remove path

let test_architecture_mismatch () =
  let exec1 = Test_util.prepare ~seed:5 (build ()) in
  let path = tmp "latte_ckpt_mismatch.bin" in
  Checkpoint.save exec1 path;
  let other =
    let net = Test_util.base_net ~batch:2 in
    let data = Layers.data_layer net ~name:"data" ~shape:[ 6 ] in
    let fc = Layers.fully_connected net ~name:"fc2" ~input:data ~n_outputs:3 in
    Test_util.attach_loss net fc;
    net
  in
  let exec2 = Test_util.prepare other in
  (* Regression: the staged two-phase load must reject the file *before*
     any live buffer is written, leaving exec2 bit-identical. *)
  let before = Tensor.to_array (Executor.lookup exec2 "fc2.weights") in
  Alcotest.(check bool) "mismatch detected" true
    (try
       Checkpoint.load exec2 path;
       false
     with Checkpoint.Corrupt _ -> true);
  Alcotest.(check bool) "parameters untouched by failed load" true
    (Tensor.to_array (Executor.lookup exec2 "fc2.weights") = before);
  Sys.remove path

let test_bad_magic () =
  let path = tmp "latte_ckpt_bad.bin" in
  let oc = open_out_bin path in
  output_string oc "NOTACKPT??";
  close_out oc;
  let exec = Test_util.prepare (build ()) in
  Alcotest.(check bool) "rejects garbage" true
    (try
       Checkpoint.load exec path;
       false
     with Checkpoint.Corrupt _ -> true);
  Sys.remove path

(* A version-1 file (magic "LATTECKPT1", no version word, no CRCs) whose
   names and shapes match the program, so only its version tells it
   apart: without checksums a damaged payload would load as wrong
   weights, so it is rejected and no parameter moves. *)
let test_v1_rejected () =
  let exec = Test_util.prepare ~seed:5 (build ()) in
  let names =
    List.map
      (fun (p : Program.param) -> p.Program.value_buf)
      (Executor.program exec).Program.params
  in
  let bits name =
    Array.map Int32.bits_of_float (Tensor.to_array (Executor.lookup exec name))
  in
  let path = tmp "latte_ckpt_v1.bin" in
  let oc = open_out_bin path in
  output_string oc "LATTECKPT1";
  output_binary_int oc (List.length names);
  let half = Bytes.create 4 in
  Bytes.set_int32_le half 0 (Int32.bits_of_float 0.5);
  List.iter
    (fun name ->
      let t = Executor.lookup exec name in
      output_binary_int oc (String.length name);
      output_string oc name;
      output_binary_int oc (Shape.rank (Tensor.shape t));
      Array.iter (output_binary_int oc) (Tensor.shape t);
      for _ = 1 to Tensor.numel t do
        output_bytes oc half
      done)
    names;
  close_out oc;
  let before = List.map bits names in
  Alcotest.(check bool) "v1 rejected" true
    (try
       Checkpoint.load exec path;
       false
     with Checkpoint.Corrupt _ -> true);
  Alcotest.(check bool) "parameters bit-identical" true
    (List.map bits names = before);
  Sys.remove path

let test_float32_precision_preserved () =
  let exec = Test_util.prepare ~seed:5 (build ()) in
  let w = Executor.lookup exec "fc.weights" in
  let before = Tensor.to_array w in
  let path = tmp "latte_ckpt_prec.bin" in
  Checkpoint.save exec path;
  Tensor.fill w 1.0;
  Checkpoint.load exec path;
  (* Bit-exact: both sides are float32. *)
  Alcotest.(check bool) "bit exact" true (Tensor.to_array w = before);
  Sys.remove path

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "cross config transfer" `Quick test_cross_config;
    Alcotest.test_case "architecture mismatch" `Quick test_architecture_mismatch;
    Alcotest.test_case "bad magic" `Quick test_bad_magic;
    Alcotest.test_case "version 1 rejected" `Quick test_v1_rejected;
    Alcotest.test_case "float32 bit exact" `Quick test_float32_precision_preserved;
  ]
