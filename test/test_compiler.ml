(* Compiler phase tests: shared-variable analysis, GEMM pattern
   matching, batch hoisting, tiling restriction, fusion grouping. *)

open Ir

let v = var
let i = int_

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go j = j + m <= n && (String.sub s j m = sub || go (j + 1)) in
  m = 0 || go 0

(* --- shared-variable analysis ----------------------------------- *)

let test_kept_dims () =
  let conv = Mapping.window2d ~kernel:3 ~stride:1 ~pad:1 () in
  Alcotest.(check (list int)) "conv keeps spatial" [ 0; 1 ]
    (Layout.kept_dims conv ~sink_rank:3);
  Alcotest.(check (list int)) "fc keeps nothing" []
    (Layout.kept_dims (Mapping.all ~rank:3) ~sink_rank:1);
  Alcotest.(check (list int)) "identity keeps all" [ 0; 1; 2 ]
    (Layout.kept_dims (Mapping.one_to_one ~rank:3) ~sink_rank:3)

let test_input_buf_shape () =
  let conv = Mapping.window2d ~kernel:3 ~stride:1 ~pad:1 () in
  let src = Shape.create [ 8; 8; 2 ] in
  let sink = Shape.create [ 8; 8; 4 ] in
  let shape = Layout.input_buf_shape ~batch:5 ~sink_shape:sink ~src_shape:src conv in
  Alcotest.(check string) "conv input buffer" "5x8x8x18" (Shape.to_string shape)

let test_access_modes () =
  let src = Shape.create [ 8; 8; 2 ] and sink = Shape.create [ 8; 8; 2 ] in
  let mode access mapping sink_shape =
    Layout.access_mode
      (Connection.create ~access ~source:"s" mapping)
      ~src_shape:src ~sink_shape
  in
  Alcotest.(check bool) "fc alias" true
    (mode Connection.Auto (Mapping.all ~rank:3) (Shape.create [ 10 ])
    = Layout.Alias_flat);
  Alcotest.(check bool) "identity" true
    (mode Connection.Auto (Mapping.one_to_one ~rank:3) sink = Layout.Alias_identity);
  Alcotest.(check bool) "padded window copies" true
    (mode Connection.Auto (Mapping.window2d ~kernel:3 ~stride:1 ~pad:1 ()) sink
    = Layout.Copy);
  Alcotest.(check bool) "unpadded window direct" true
    (mode Connection.Auto
       (Mapping.window2d ~kernel:2 ~stride:2 ~pad:0 ())
       (Shape.create [ 4; 4; 2 ])
    = Layout.Direct);
  Alcotest.(check bool) "general gathers" true
    (mode Connection.Auto (Mapping.General (fun _ -> [| (0, 1); (0, 1); (0, 1) |])) sink
    = Layout.Gather)

(* --- GEMM pattern matching --------------------------------------- *)

let with_pool bufs f =
  let pool = Buffer_pool.create () in
  List.iter (fun (n, s) -> ignore (Buffer_pool.alloc pool n (Shape.create s))) bufs;
  f pool (fun name -> Tensor.shape (Buffer_pool.lookup pool name))

let test_match_fc_nest () =
  (* for o, i: value[n, o] += w[o, i] * in0[n, i]  (per item, m=out, n=1) *)
  with_pool
    [ ("value", [ 2; 10 ]); ("w", [ 10; 6 ]); ("in0", [ 2; 6 ]) ]
    (fun _pool shape_of ->
      let nest =
        [
          loop "o" (i 0) (i 10)
            [
              loop "k" (i 0) (i 6)
                [
                  accum "value" [ v "n"; v "o" ]
                    (Fbinop (Fmul, load "w" [ v "o"; v "k" ], load "in0" [ v "n"; v "k" ]));
                ];
            ];
        ]
      in
      match Pattern_match.rewrite ~shape_of ~y_info:None nest with
      | [ Gemm g ] ->
          Alcotest.(check string) "m" "10" (Ir_printer.iexpr_to_string g.m);
          Alcotest.(check string) "n" "1" (Ir_printer.iexpr_to_string g.n);
          Alcotest.(check string) "k" "6" (Ir_printer.iexpr_to_string g.k);
          Alcotest.(check bool) "A = weights" true (String.equal g.a "w")
      | other ->
          Alcotest.failf "no GEMM matched:\n%s" (Ir_printer.stmts_to_string other))

let test_match_conv_nest () =
  (* for y, x, c, j: value[n,y,x,c] += in0[n,y,x,j] * w[c,j] — must
     collapse y and x into the GEMM m dimension with tiling metadata. *)
  with_pool
    [ ("value", [ 2; 8; 8; 4 ]); ("w", [ 4; 18 ]); ("in0", [ 2; 8; 8; 18 ]) ]
    (fun _pool shape_of ->
      let nest =
        [
          loop "y" (i 0) (i 8)
            [
              loop "x" (i 0) (i 8)
                [
                  loop "c" (i 0) (i 4)
                    [
                      loop "j" (i 0) (i 18)
                        [
                          accum "value" [ v "n"; v "y"; v "x"; v "c" ]
                            (Fbinop
                               ( Fmul,
                                 load "in0" [ v "n"; v "y"; v "x"; v "j" ],
                                 load "w" [ v "c"; v "j" ] ));
                        ];
                    ];
                ];
            ];
        ]
      in
      match Pattern_match.rewrite ~shape_of ~y_info:(Some ("y", 8)) nest with
      | [ Gemm g ] ->
          Alcotest.(check string) "m = 64" "64" (Ir_printer.iexpr_to_string g.m);
          Alcotest.(check string) "n = 4" "4" (Ir_printer.iexpr_to_string g.n);
          Alcotest.(check string) "k = 18" "18" (Ir_printer.iexpr_to_string g.k);
          Alcotest.(check bool) "B transposed" true g.transb;
          (match g.gemm_tile with
          | Some t ->
              Alcotest.(check bool) "rows role" true (t.role = Rows_m);
              Alcotest.(check int) "rows per y" 8 t.rows_per_y
          | None -> Alcotest.fail "expected tiling metadata")
      | other ->
          Alcotest.failf "no GEMM matched:\n%s" (Ir_printer.stmts_to_string other))

let test_no_match_elementwise () =
  with_pool
    [ ("value", [ 2; 10 ]); ("bias", [ 10; 1 ]) ]
    (fun _pool shape_of ->
      let nest =
        [ loop "o" (i 0) (i 10) [ accum "value" [ v "n"; v "o" ] (load "bias" [ v "o"; i 0 ]) ] ]
      in
      match Pattern_match.rewrite ~shape_of ~y_info:None nest with
      | [ For _ ] -> ()
      | other -> Alcotest.failf "unexpected rewrite:\n%s" (Ir_printer.stmts_to_string other))

let test_no_match_nonaffine () =
  with_pool
    [ ("value", [ 4 ]); ("a", [ 16 ]); ("b", [ 16 ]) ]
    (fun _pool shape_of ->
      let nest =
        [
          loop "o" (i 0) (i 4)
            [
              loop "k" (i 0) (i 4)
                [
                  accum "value" [ v "o" ]
                    (Fbinop (Fmul, load "a" [ Imul (v "o", v "k") ], load "b" [ v "k" ]));
                ];
            ];
        ]
      in
      match Pattern_match.rewrite ~shape_of ~y_info:None nest with
      | [ For _ ] -> ()
      | other -> Alcotest.failf "unexpected rewrite:\n%s" (Ir_printer.stmts_to_string other))

(* Numeric equivalence of hoisting: evaluate the per-item loop + gemv
   against the hoisted whole-batch GEMM. *)
let test_hoist_batch_numeric () =
  let batch = 3 and out = 5 and k = 4 in
  let g =
    Gemm
      {
        transa = false;
        transb = false;
        m = i out;
        n = i 1;
        k = i k;
        a = "w";
        off_a = i 0;
        b = "in0";
        off_b = Imul (v "n", i k);
        c = "value";
        off_c = Imul (v "n", i out);
        alpha = 1.0;
        beta = 1.0;
        gemm_tile = None;
      }
  in
  let per_item = [ loop "n" (i 0) (i batch) [ g ] ] in
  let segments =
    match Pattern_match.hoist_batch ~batch_var:"n" ~batch [ g ] with
    | Some s -> s
    | None -> Alcotest.fail "expected hoist"
  in
  let hoisted =
    List.concat_map
      (function Pattern_match.Global s -> s | Pattern_match.Per_item s ->
        [ loop "n" (i 0) (i batch) s ])
      segments
  in
  let mk_env seed =
    let pool = Buffer_pool.create () in
    let rng = Rng.create seed in
    List.iter
      (fun (n, s) ->
        let t = Buffer_pool.alloc pool n (Shape.create s) in
        Tensor.fill_uniform rng t ~lo:(-1.0) ~hi:1.0)
      [ ("w", [ out; k ]); ("in0", [ batch; k ]); ("value", [ batch; out ]) ];
    pool
  in
  let e1 = mk_env 7 and e2 = mk_env 7 in
  Ir_eval.run ~lookup:(Buffer_pool.lookup e1) per_item;
  Ir_eval.run ~lookup:(Buffer_pool.lookup e2) hoisted;
  Alcotest.(check bool) "hoisted GEMM equivalent" true
    (Tensor.approx_equal ~tol:1e-4
       (Buffer_pool.lookup e1 "value")
       (Buffer_pool.lookup e2 "value"))

(* --- tiling restriction ------------------------------------------ *)

let test_restrict_loops_union () =
  (* Running the restricted body for every tile must equal the full
     loop. *)
  let body =
    [
      loop "y" (i 0) (i 8)
        [ loop "x" (i 0) (i 4) [ accum "dst" [ v "y"; v "x" ] (load "src" [ v "y"; v "x" ]) ] ];
    ]
  in
  let mk_env () =
    let pool = Buffer_pool.create () in
    let rng = Rng.create 11 in
    let s = Buffer_pool.alloc pool "src" (Shape.create [ 8; 4 ]) in
    Tensor.fill_uniform rng s ~lo:(-1.0) ~hi:1.0;
    ignore (Buffer_pool.alloc pool "dst" (Shape.create [ 8; 4 ]));
    pool
  in
  let e1 = mk_env () and e2 = mk_env () in
  Ir_eval.run ~lookup:(Buffer_pool.lookup e1) body;
  for t = 0 to 3 do
    let restricted = Tiling.restrict ~y_var:"y" ~y0:(i (t * 2)) ~y1:(i ((t + 1) * 2)) body in
    Ir_eval.run ~lookup:(Buffer_pool.lookup e2) restricted
  done;
  Alcotest.(check bool) "tiles cover" true
    (Tensor.approx_equal (Buffer_pool.lookup e1 "dst") (Buffer_pool.lookup e2 "dst"))

let test_restrict_gemm_union () =
  let m = 8 and n = 3 and k = 4 in
  let g =
    {
      transa = false;
      transb = false;
      m = i m;
      n = i n;
      k = i k;
      a = "a";
      off_a = i 0;
      b = "b";
      off_b = i 0;
      c = "c";
      off_c = i 0;
      alpha = 1.0;
      beta = 1.0;
      gemm_tile = Some { role = Rows_m; rows_per_y = 2; y_extent = 4 };
    }
  in
  let mk_env () =
    let pool = Buffer_pool.create () in
    let rng = Rng.create 12 in
    List.iter
      (fun (nm, s) ->
        let t = Buffer_pool.alloc pool nm (Shape.create s) in
        if nm <> "c" then Tensor.fill_uniform rng t ~lo:(-1.0) ~hi:1.0)
      [ ("a", [ m; k ]); ("b", [ k; n ]); ("c", [ m; n ]) ];
    pool
  in
  let e1 = mk_env () and e2 = mk_env () in
  Ir_eval.run ~lookup:(Buffer_pool.lookup e1) [ Gemm g ];
  for t = 0 to 3 do
    let restricted = Tiling.restrict ~y_var:"unused" ~y0:(i t) ~y1:(i (t + 1)) [ Gemm g ] in
    Ir_eval.run ~lookup:(Buffer_pool.lookup e2) restricted
  done;
  Alcotest.(check bool) "gemm tiles cover" true
    (Tensor.approx_equal ~tol:1e-4 (Buffer_pool.lookup e1 "c") (Buffer_pool.lookup e2 "c"))

let test_choose_tile_rows () =
  Alcotest.(check int) "divisor" 4 (Tiling.choose_tile_rows ~extent:8 ~target:4);
  Alcotest.(check int) "clamp" 7 (Tiling.choose_tile_rows ~extent:7 ~target:100);
  Alcotest.(check int) "prime" 1 (Tiling.choose_tile_rows ~extent:7 ~target:4);
  Alcotest.(check int) "nondivisor target" 5 (Tiling.choose_tile_rows ~extent:10 ~target:6)

(* --- fusion grouping on a real network ---------------------------- *)

let convnet ~batch =
  let net = Net.create ~batch_size:batch in
  Net.add_external net ~name:"label" ~item_shape:[];
  Net.add_external net ~name:"loss" ~item_shape:[];
  let data = Layers.data_layer net ~name:"data" ~shape:[ 8; 8; 2 ] in
  let conv1 =
    Layers.convolution net ~name:"conv1" ~input:data ~n_filters:4 ~kernel:3
      ~stride:1 ~pad:1 ()
  in
  let r1 = Layers.relu net ~name:"relu1" ~input:conv1 in
  let pool1 = Layers.max_pooling net ~name:"pool1" ~input:r1 ~kernel:2 () in
  let conv2 =
    Layers.convolution net ~name:"conv2" ~input:pool1 ~n_filters:4 ~kernel:3
      ~stride:1 ~pad:1 ()
  in
  let r2 = Layers.relu net ~name:"relu2" ~input:conv2 in
  let fc = Layers.fully_connected net ~name:"fc" ~input:r2 ~n_outputs:3 in
  let _ =
    Layers.softmax_loss net ~name:"sl" ~input:fc ~label_buf:"label" ~loss_buf:"loss"
  in
  net

let forward_labels config =
  let prog = Pipeline.compile ~seed:1 config (convnet ~batch:2) in
  List.map (fun (s : Program.section) -> s.Program.label) prog.Program.forward

let test_fusion_groups () =
  let labels = forward_labels Config.default in
  Alcotest.(check bool) "conv group fused" true
    (List.mem "conv1+relu1+pool1" labels);
  (* conv2 cannot fuse onto pool1 (overlapping 3x3 window), but absorbs
     its own relu. *)
  Alcotest.(check bool) "conv2+relu2" true (List.mem "conv2+relu2" labels);
  Alcotest.(check bool) "fc hoisted" true (List.mem "fc:batch-gemm" labels)

let test_fusion_disabled () =
  let labels = forward_labels (Config.without [ "fuse" ] Config.default) in
  Alcotest.(check bool) "no fused label" true
    (not (List.exists (fun l -> contains ~sub:"+" l) labels))

let test_unoptimized_no_gemm () =
  let prog = Pipeline.compile ~seed:1 Config.unoptimized (convnet ~batch:2) in
  let has_gemm =
    List.exists
      (fun (s : Program.section) ->
        contains ~sub:"gemm(" (Ir_printer.stmts_to_string s.Program.stmts))
      prog.Program.forward
  in
  Alcotest.(check bool) "no gemm when disabled" false has_gemm

let test_inplace_aliasing () =
  let prog = Pipeline.compile ~seed:1 Config.default (convnet ~batch:2) in
  let pool = prog.Program.buffers in
  Alcotest.(check string) "relu1 aliases conv1" "conv1.value"
    (Buffer_pool.physical pool "relu1.value");
  let prog2 =
    Pipeline.compile ~seed:1
      (Config.without [ "layout" ] Config.default)
      (convnet ~batch:2)
  in
  Alcotest.(check string) "no alias when disabled" "relu1.value"
    (Buffer_pool.physical prog2.Program.buffers "relu1.value")

let test_fc_input_aliases_source () =
  let prog = Pipeline.compile ~seed:1 Config.default (convnet ~batch:2) in
  (* FC input vector is the flattened source values: no copy. *)
  Alcotest.(check string) "fc.in0 alias" "conv2.value"
    (Buffer_pool.physical prog.Program.buffers "fc.in0")

let test_params_collected () =
  let prog = Pipeline.compile ~seed:1 Config.default (convnet ~batch:2) in
  let names = List.map (fun (p : Program.param) -> p.Program.param_name) prog.Program.params in
  List.iter
    (fun n -> Alcotest.(check bool) n true (List.mem n names))
    [ "conv1.weights"; "conv1.bias"; "conv2.weights"; "fc.weights"; "fc.bias" ]

let test_grad_sizes_order () =
  let prog = Pipeline.compile ~seed:1 Config.default (convnet ~batch:2) in
  (* Issue order is reverse topological: fc before conv2 before conv1. *)
  let order = List.map fst prog.Program.grad_sizes in
  Alcotest.(check (list string)) "reverse topo" [ "fc"; "conv2"; "conv1" ] order

let suite =
  [
    Alcotest.test_case "kept dims" `Quick test_kept_dims;
    Alcotest.test_case "input buffer shape" `Quick test_input_buf_shape;
    Alcotest.test_case "access modes" `Quick test_access_modes;
    Alcotest.test_case "match FC nest" `Quick test_match_fc_nest;
    Alcotest.test_case "match conv nest" `Quick test_match_conv_nest;
    Alcotest.test_case "no match elementwise" `Quick test_no_match_elementwise;
    Alcotest.test_case "no match nonaffine" `Quick test_no_match_nonaffine;
    Alcotest.test_case "hoist batch numeric" `Quick test_hoist_batch_numeric;
    Alcotest.test_case "restrict loops union" `Quick test_restrict_loops_union;
    Alcotest.test_case "restrict gemm union" `Quick test_restrict_gemm_union;
    Alcotest.test_case "choose tile rows" `Quick test_choose_tile_rows;
    Alcotest.test_case "fusion groups" `Quick test_fusion_groups;
    Alcotest.test_case "fusion disabled" `Quick test_fusion_disabled;
    Alcotest.test_case "unoptimized no gemm" `Quick test_unoptimized_no_gemm;
    Alcotest.test_case "inplace aliasing" `Quick test_inplace_aliasing;
    Alcotest.test_case "fc input aliases source" `Quick test_fc_input_aliases_source;
    Alcotest.test_case "params collected" `Quick test_params_collected;
    Alcotest.test_case "grad sizes order" `Quick test_grad_sizes_order;
  ]
