(* A tour of the compiler pipeline: shows the synthesized and optimized
   IR for a Conv+ReLU+Pool block at each optimization level — the
   progression of the paper's Figures 9, 10 and 12 — by enabling the
   pass-manager passes one group at a time (the CLI equivalent is
   `latte dump-ir --passes=LIST`).

   Run with: dune exec examples/compiler_tour.exe *)

let build () =
  let net = Net.create ~batch_size:2 in
  Net.add_external net ~name:"label" ~item_shape:[];
  Net.add_external net ~name:"loss" ~item_shape:[];
  let data = Layers.data_layer net ~name:"data" ~shape:[ 8; 8; 2 ] in
  let conv1 =
    Layers.convolution net ~name:"conv1" ~input:data ~n_filters:4 ~kernel:3
      ~stride:1 ~pad:1 ()
  in
  let relu1 = Layers.relu net ~name:"relu1" ~input:conv1 in
  let pool1 = Layers.max_pooling net ~name:"pool1" ~input:relu1 ~kernel:2 () in
  let fc = Layers.fully_connected net ~name:"fc" ~input:pool1 ~n_outputs:3 in
  ignore
    (Layers.softmax_loss net ~name:"sl" ~input:fc ~label_buf:"label"
       ~loss_buf:"loss");
  net

let stage title passes =
  Printf.printf "\n########## %s (passes: %s) ##########\n" title
    (String.concat "," passes);
  let prog, report =
    Pass_manager.run ~verify:true
      (Pass_manager.edit passes Config.default)
      (build ())
  in
  (* Print the forward code only; backward follows the same structure. *)
  List.iter
    (fun (s : Program.section) ->
      Printf.printf "--- section %s ---\n%s" s.Program.label
        (Ir_printer.stmts_to_string s.Program.stmts))
    prog.Program.forward;
  report

let () =
  (* Figure 9: plain synthesized loop nests — neuron kernels rewritten
     to SoA buffer accesses, a data-copy task feeding the convolution. *)
  ignore (stage "1. synthesis only" [ "none" ]);
  (* Figure 9 -> GEMM: the dot-product nest is pattern-matched into a
     library call; per-item FC GEMVs are stacked into one batch GEMM. *)
  ignore
    (stage "2. + gemm pattern matching" [ "gemm"; "batch-gemm"; "simplify" ]);
  (* Figure 10: tiled loops with dependence-distance metadata. *)
  ignore
    (stage "3. + tiling"
       [ "layout"; "gemm"; "batch-gemm"; "tile"; "simplify" ]);
  (* Figure 12: conv+relu+pool fused under one tile loop, producer tiles
     scaled by the pooling layer's dependence distance, parallel
     batch x tile annotations. *)
  let report = stage "4. + fusion + parallelization" [ "all" ] in
  (* What each pass did and cost, from the pass manager's report. *)
  Printf.printf "\n########## pass instrumentation (stage 4) ##########\n";
  Printf.printf "%-14s %-4s %9s  %s\n" "pass" "on" "ms" "IR census";
  List.iter
    (fun (o : Pass_manager.outcome) ->
      Printf.printf "%-14s %-4s %9.3f  %s\n" o.Pass_manager.info.Pass.name
        (if o.Pass_manager.enabled then "on" else "off")
        (o.Pass_manager.seconds *. 1e3)
        (Ir_stats.to_string o.Pass_manager.stats))
    report.Pass_manager.outcomes;
  Printf.printf "total compile: %.3f ms (IR verified after every pass)\n"
    (report.Pass_manager.total_seconds *. 1e3)
