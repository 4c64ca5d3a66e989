(* Bechamel statistical micro-benchmarks of the core kernels: one
   Test.make per experiment family. Run with `bench/main.exe --bechamel`. *)

open Bechamel
open Toolkit

let gemm_test =
  let m = 64 and n = 64 and k = 64 in
  let rng = Rng.create 1 in
  let mk sz =
    let t = Tensor.create (Shape.create [ sz ]) in
    Tensor.fill_uniform rng t ~lo:(-1.0) ~hi:1.0;
    Tensor.data t
  in
  let a = mk (m * k) and b = mk (k * n) and c = mk (m * n) in
  Test.make ~name:"gemm 64x64x64"
    (Staged.stage (fun () ->
         Blas.gemm ~transa:false ~transb:false ~m ~n ~k ~beta:0.0 ~a ~b ~c ()))

let im2col_test =
  let spec = { Im2col.channels = 8; height = 32; width = 32; kernel = 3; stride = 1; pad = 1 } in
  let rng = Rng.create 2 in
  let src = Tensor.create (Shape.create [ 32; 32; 8 ]) in
  Tensor.fill_uniform rng src ~lo:0.0 ~hi:1.0;
  let dst = Tensor.create (Im2col.col_shape_pm spec) in
  Test.make ~name:"im2col 32x32x8 k3"
    (Staged.stage (fun () -> Im2col.im2col_pm spec ~src ~dst))

let make_block ?(opts = Executor.Run_opts.default) config =
  let net = Net.create ~batch_size:1 in
  Net.add_external net ~name:"label" ~item_shape:[];
  Net.add_external net ~name:"loss" ~item_shape:[];
  let data = Layers.data_layer net ~name:"data" ~shape:[ 32; 32; 3 ] in
  let conv =
    Layers.convolution net ~name:"conv" ~input:data ~n_filters:8 ~kernel:3
      ~stride:1 ~pad:1 ()
  in
  let r = Layers.relu net ~name:"r" ~input:conv in
  let pool = Layers.max_pooling net ~name:"pool" ~input:r ~kernel:2 () in
  let fc = Layers.fully_connected net ~name:"fc" ~input:pool ~n_outputs:10 in
  ignore
    (Layers.softmax_loss net ~name:"sl" ~input:fc ~label_buf:"label"
       ~loss_buf:"loss");
  let exec = Executor.prepare ~opts (Pipeline.compile ~seed:1 config net) in
  Tensor.fill_uniform (Rng.create 3) (Executor.lookup exec "data.value") ~lo:0.0
    ~hi:1.0;
  exec

let fused_block_test =
  let exec = make_block Config.default in
  Test.make ~name:"conv block fwd (latte fused)"
    (Staged.stage (fun () -> Executor.forward exec))

let unfused_block_test =
  let exec = make_block (Config.without [ "fuse"; "tile" ] Config.default) in
  Test.make ~name:"conv block fwd (latte unfused)"
    (Staged.stage (fun () -> Executor.forward exec))

(* What the bounds proof buys: the fused test above runs under
   [Guard_unproven], the default (everything here is proven, so it
   equals the pure unsafe path), against [Checked] (every access
   guarded, no specialized kernels). *)
let checked_block_test =
  let opts =
    Executor.Run_opts.with_safety Ir_compile.Checked Executor.Run_opts.default
  in
  let exec = make_block ~opts Config.default in
  Test.make ~name:"conv block fwd (checked)"
    (Staged.stage (fun () -> Executor.forward exec))

(* Forward-pass scaling across domain-pool sizes (§5.4.3). Each row is
   median-of-iters wall clock at 1/2/4 domains plus speedups vs 1,
   followed by its bench rows. On a single-core
   container speedups hover around (or below) 1.0 — the table is about
   the dispatch overhead staying sane and the numbers staying
   bit-identical, not about beating the core count. *)
let scaling () =
  let models =
    [
      ( "mlp",
        fun () ->
          (Models.mlp ~batch:16 ~n_inputs:(32 * 32) ~hidden:[ 128 ]
             ~n_classes:10)
            .Models.net );
      ("lenet", fun () -> (Models.lenet ~batch:8 ~image:28 ~n_classes:10 ()).Models.net);
    ]
  in
  Bench_common.header "forward-pass domain scaling";
  Printf.printf "  %-8s %12s %12s %12s %8s %8s\n" "model" "1 dom (ms)"
    "2 dom (ms)" "4 dom (ms)" "x2" "x4";
  List.iter
    (fun (name, build) ->
      let fwd_at domains =
        let opts =
          Executor.Run_opts.with_domains domains Executor.Run_opts.default
        in
        let m, exec = Bench_common.measure_latte ~opts ~iters:5 (build ()) in
        (* Parallel-schedule census: how many loops actually dispatch
           across workers, and how many buffers the §5.4.3 splitter had
           to keep in the sequential replay (fewer = the Ir_deps
           analyzer proved more of the program race-free). *)
        let entries = List.map snd (Executor.schedule exec) in
        let parallel_loops =
          List.length
            (List.filter
               (fun (e : Ir_compile.par_entry) -> e.Ir_compile.par_fallback = None)
               entries)
        in
        let replayed =
          List.fold_left
            (fun acc (e : Ir_compile.par_entry) ->
              acc + List.length e.Ir_compile.par_replayed)
            0 entries
        in
        (m.Bench_common.fwd, parallel_loops, replayed)
      in
      let t1, pl1, rb1 = fwd_at 1
      and t2, pl2, rb2 = fwd_at 2
      and t4, pl4, rb4 = fwd_at 4 in
      Printf.printf "  %-8s %12.3f %12.3f %12.3f %8.2f %8.2f\n" name
        (t1 *. 1e3) (t2 *. 1e3) (t4 *. 1e3) (t1 /. t2) (t1 /. t4);
      List.iter
        (fun (domains, t, parallel_loops, replayed) ->
          let row =
            Bench_common.emit ~bench:"scaling" ~case:name ~preset:"f32"
              ~scope:(Printf.sprintf "domains=%d" domains)
          in
          row ~unit:"ms" "forward_ms" (t *. 1e3);
          row ~unit:"x" "speedup" (t1 /. t);
          row ~unit:"count" "parallel_loops" (float_of_int parallel_loops);
          row ~unit:"count" "replayed_buffers" (float_of_int replayed))
        [ (1, t1, pl1, rb1); (2, t2, pl2, rb2); (4, t4, pl4, rb4) ])
    models

let run () =
  let tests =
    [
      gemm_test; im2col_test; fused_block_test; unfused_block_test;
      checked_block_test;
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw =
    List.map
      (fun test -> Benchmark.all cfg instances test)
      (List.map (fun t -> t) tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter2
    (fun test results ->
      Printf.printf "  %s:\n" (Test.name test);
      let analyzed = Analyze.all ols (Instance.monotonic_clock :> Measure.witness) results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ t ] -> Printf.printf "    %-40s %10.1f ns/run\n" name t
          | _ -> ())
        analyzed)
    tests raw
