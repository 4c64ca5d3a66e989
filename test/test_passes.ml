(* The pass manager: differential testing (disabling any single
   optimization pass must not change the numerics) plus unit tests for
   pass-set resolution, config normalization and instrumentation. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Differential harness                                                *)
(* ------------------------------------------------------------------ *)

(* A net builder returns a fresh, structurally identical net on every
   call (architecture dimensions drawn once from a seeded Rng), so each
   pass configuration compiles the same network. *)

type built = {
  fresh : unit -> Net.t;
  batch : int;
  n_classes : int;
  out_buf : string;
}

let random_convnet seed =
  let rng = Rng.create seed in
  let batch = 2 + Rng.int rng 2 in
  let image = if Rng.int rng 2 = 0 then 6 else 8 in
  let n_filters = 2 + Rng.int rng 3 in
  let n_classes = 3 + Rng.int rng 3 in
  let fresh () =
    let net = Test_util.base_net ~batch in
    let data = Layers.data_layer net ~name:"data" ~shape:[ image; image; 2 ] in
    let conv1 =
      Layers.convolution net ~name:"conv1" ~input:data ~n_filters ~kernel:3
        ~stride:1 ~pad:1 ()
    in
    let r1 = Layers.relu net ~name:"relu1" ~input:conv1 in
    let pool1 = Layers.max_pooling net ~name:"pool1" ~input:r1 ~kernel:2 () in
    let fc =
      Layers.fully_connected net ~name:"fc" ~input:pool1 ~n_outputs:n_classes
    in
    Test_util.attach_loss net fc;
    net
  in
  { fresh; batch; n_classes; out_buf = "fc.value" }

let random_mlp seed =
  let rng = Rng.create seed in
  let batch = 2 + Rng.int rng 3 in
  let n_inputs = 8 + Rng.int rng 8 in
  let hidden = 4 + Rng.int rng 8 in
  let n_classes = 3 + Rng.int rng 3 in
  let fresh () =
    let net = Test_util.base_net ~batch in
    let data = Layers.data_layer net ~name:"data" ~shape:[ n_inputs ] in
    let ip1 =
      Layers.fully_connected net ~name:"ip1" ~input:data ~n_outputs:hidden
    in
    let r1 = Layers.relu net ~name:"relu1" ~input:ip1 in
    let fc =
      Layers.fully_connected net ~name:"fc" ~input:r1 ~n_outputs:n_classes
    in
    Test_util.attach_loss net fc;
    net
  in
  { fresh; batch; n_classes; out_buf = "fc.value" }

(* Compile under the [--passes] entries, run one forward+backward on
   fixed data, and capture output activations, loss and every parameter
   gradient. *)
let run_once (b : built) entries =
  let config = Pass_manager.edit entries Config.default in
  let prog, _report = Pass_manager.run ~seed:3 config (b.fresh ()) in
  let exec = Executor.prepare prog in
  Test_util.fill_inputs exec ~batch:b.batch ~n_classes:b.n_classes;
  Executor.forward exec;
  Executor.backward exec;
  let out = Tensor.copy (Executor.lookup exec b.out_buf) in
  let loss = Tensor.sum (Executor.lookup exec "loss") in
  let grads =
    List.map
      (fun (p : Program.param) ->
        (p.grad_buf, Tensor.copy (Executor.lookup exec p.grad_buf)))
      prog.Program.params
  in
  (out, loss, grads)

let differential (b : built) () =
  let ref_out, ref_loss, ref_grads = run_once b [ "none" ] in
  let check_config label passes =
    let out, loss, grads = run_once b passes in
    Alcotest.(check bool)
      (label ^ ": forward output matches unoptimized reference")
      true
      (Tensor.approx_equal ~tol:1e-4 ref_out out);
    Alcotest.(check bool)
      (label ^ ": loss matches")
      true
      (Float.abs (ref_loss -. loss) <= 1e-4 *. Float.max 1.0 (Float.abs ref_loss));
    List.iter2
      (fun (name, rg) (name', g) ->
        Alcotest.(check string) (label ^ ": same param order") name name';
        Alcotest.(check bool)
          (Printf.sprintf "%s: gradient %s matches" label name)
          true
          (Tensor.approx_equal ~tol:1e-4 rg g))
      ref_grads grads
  in
  check_config "all passes" [ "all" ];
  check_config "defaults" [ "+simplify" ];
  List.iter
    (fun p -> check_config ("without " ^ p) [ "-" ^ p ])
    (Pass_manager.optional_pass_names ())

(* ------------------------------------------------------------------ *)
(* Pass-set resolution and normalization                               *)
(* ------------------------------------------------------------------ *)

let test_resolve () =
  let edited entries = Pass_manager.edit entries Config.default in
  Alcotest.(check (list string))
    "all = every optional pass"
    (Pass_manager.optional_pass_names ())
    (edited [ "all" ]).Config.passes;
  Alcotest.(check (list string))
    "none = empty" [] (edited [ "none" ]).Config.passes;
  let cfg, _ = Config.normalize (edited [ "-tile" ]) in
  Alcotest.(check bool) "-tile drops tile" false (Config.enabled "tile" cfg);
  Alcotest.(check bool) "-tile also drops fuse (normalized)" false
    (Config.enabled "fuse" cfg);
  Alcotest.(check bool) "-tile keeps gemm" true (Config.enabled "gemm" cfg);
  let cfg, warns = Config.normalize (edited [ "fuse" ]) in
  Alcotest.(check bool) "bare fuse is normalized away" false
    (Config.enabled "fuse" cfg);
  Alcotest.(check bool) "normalization warns" true
    (List.exists (fun w -> contains w "fusion requires tiling") warns);
  let unknown =
    Invalid_argument
      "unknown compiler pass `bogus' (known passes: layout, synthesize, \
       gemm, batch-gemm, fuse, tile, assemble, simplify, parallelize)"
  in
  Alcotest.check_raises "unknown pass name rejected" unknown (fun () ->
      ignore (edited [ "bogus" ]));
  Alcotest.check_raises "run rejects it too" unknown (fun () ->
      ignore
        (Pass_manager.run
           (Config.with_flags ~passes:[ "bogus" ] Config.default)
           ((random_mlp 1).fresh ())))

(* A pass added to the registry but not to the default fails here. *)
let test_default_passes () =
  Alcotest.(check (list string))
    "default = every optional pass"
    (Pass_manager.optional_pass_names ())
    Config.default.Config.passes;
  Alcotest.(check (list string))
    "unoptimized = simplify" [ "simplify" ] Config.unoptimized.Config.passes

let test_edit_order () =
  Alcotest.(check (list string))
    "+fuse returns to its registry slot" Config.default.Config.passes
    (Pass_manager.edit [ "+fuse" ] (Config.without [ "fuse" ] Config.default))
      .Config.passes;
  let exact =
    Pass_manager.edit [ "tile"; "parallelize"; "gemm"; "fuse" ] Config.default
  in
  Alcotest.(check (list string))
    "exact list in registry order" [ "gemm"; "fuse"; "tile"; "parallelize" ]
    exact.Config.passes;
  Alcotest.(check string) "equal sets describe equally"
    (Config.describe
       (Pass_manager.edit [ "gemm"; "fuse"; "parallelize"; "tile" ] Config.default))
    (Config.describe exact)

let test_parse_spec () =
  Alcotest.(check (list string))
    "comma spec" [ "a"; "b"; "c" ]
    (Pass_manager.parse_spec "a, b,,c")

let test_normalize () =
  let cfg, warns = Config.normalize (Config.without [ "tile" ] Config.default) in
  Alcotest.(check (list string))
    "fuse dropped, the rest kept"
    [ "layout"; "gemm"; "batch-gemm"; "simplify"; "parallelize" ]
    cfg.Config.passes;
  Alcotest.(check bool) "warning emitted" true
    (List.exists (fun w -> contains w "fusion requires tiling") warns);
  let cfg, warns = Config.normalize (Config.without [ "gemm" ] Config.default) in
  Alcotest.(check bool) "batch-gemm dropped" false
    (Config.enabled "batch-gemm" cfg);
  Alcotest.(check bool) "batch-gemm warning" true
    (List.exists (fun w -> contains w "batch-GEMM") warns);
  let _, warns = Config.normalize Config.default in
  Alcotest.(check (list string)) "default config is clean" [] warns

(* ------------------------------------------------------------------ *)
(* Verification and instrumentation over real models                   *)
(* ------------------------------------------------------------------ *)

let test_verified_models () =
  List.iter
    (fun (name, net) ->
      let _prog, report = Pass_manager.run ~verify:true Config.default net in
      Alcotest.(check bool) (name ^ " verified") true report.Pass_manager.verified)
    [
      ("mlp",
       (Models.mlp ~batch:3 ~n_inputs:16 ~hidden:[ 8 ] ~n_classes:4).Models.net);
      ("lenet", (Models.lenet ~batch:2 ~image:16 ~n_classes:5 ()).Models.net);
      ("convnet", (random_convnet 21).fresh ());
    ]

let test_report_and_dump () =
  let b = random_mlp 9 in
  let _prog, report =
    Pass_manager.run ~verify:true ~dump_after:[ "gemm"; "assemble" ]
      Config.default (b.fresh ())
  in
  let outcome name =
    List.find
      (fun (o : Pass_manager.outcome) -> o.info.Pass.name = name)
      report.Pass_manager.outcomes
  in
  Alcotest.(check int) "one outcome per registered pass"
    (List.length (Pass_manager.passes ()))
    (List.length report.Pass_manager.outcomes);
  (match (outcome "gemm").dump with
  | Some d ->
      Alcotest.(check bool) "gemm dump shows a GEMM call" true
        (contains d "gemm(")
  | None -> Alcotest.fail "expected a dump after the gemm pass");
  (match (outcome "assemble").dump with
  | Some d ->
      Alcotest.(check bool) "assembled dump names sections" true
        (contains d "forward/")
  | None -> Alcotest.fail "expected a dump after assemble");
  Alcotest.(check bool) "synthesize produced statements" true
    (Ir_stats.statements (outcome "synthesize").stats > 0);
  Alcotest.(check bool) "parallelize annotated loops" true
    ((outcome "parallelize").stats.Ir_stats.parallel_loops > 0);
  Alcotest.(check bool) "undumped pass has no dump"
    true
    ((outcome "tile").dump = None)

let test_pipeline_dump () =
  let spec = Models.lenet ~batch:2 ~image:16 ~n_classes:5 () in
  let d = Pipeline.dump (Pipeline.compile ~seed:1 Config.default spec.Models.net) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("dump contains " ^ needle) true (contains d needle))
    [
      "=== forward ==="; "=== backward ==="; "=== buffers ===";
      "bytes"; "(alias of "; "total allocated:"; "=== parameters ===";
      "lr_mult";
    ]

let suite =
  [
    Alcotest.test_case "differential: random convnet" `Quick
      (differential (random_convnet 5));
    Alcotest.test_case "differential: random mlp" `Quick
      (differential (random_mlp 13));
    Alcotest.test_case "pass-set resolution" `Quick test_resolve;
    Alcotest.test_case "default pass list" `Quick test_default_passes;
    Alcotest.test_case "edit keeps registry order" `Quick test_edit_order;
    Alcotest.test_case "spec parsing" `Quick test_parse_spec;
    Alcotest.test_case "config normalization" `Quick test_normalize;
    Alcotest.test_case "bundled models verify" `Quick test_verified_models;
    Alcotest.test_case "report + dumps" `Quick test_report_and_dump;
    Alcotest.test_case "pipeline dump tables" `Quick test_pipeline_dump;
  ]
