(* The precision dimension: quantize/dequantize laws (QCheck), packed
   buffer-pool stores, the compiled-vs-interpreter differential on a
   quantized program, int8 serving fidelity across every stock model,
   the Narrow_accum lint, and a golden dump of an int8-packed program's
   buffer table. *)

(* ---- quantize/dequantize laws ------------------------------------- *)

(* |dequantize (quantize v) - v| <= scale/2 for v inside the calibrated
   range — the round-to-nearest bound the int8 preset's accuracy story
   rests on. *)
let prop_qparams_roundtrip =
  QCheck.Test.make ~count:500 ~name:"int8 roundtrip error <= scale/2"
    (QCheck.make
       QCheck.Gen.(
         let* absmax = map (fun n -> float_of_int (n + 1) /. 7.0) (int_bound 9999) in
         let* num = int_bound 20_000 in
         let v = absmax *. ((float_of_int num /. 10_000.0) -. 1.0) in
         return (absmax, v)))
    (fun (absmax, v) ->
      let qp = Precision.qparams_of_absmax absmax in
      let err = Float.abs (Precision.dequantize qp (Precision.quantize qp v) -. v) in
      err <= (qp.Precision.scale /. 2.0) +. 1e-12)

let test_quantize_clamps () =
  let qp = Precision.qparams_of_absmax 1.0 in
  Alcotest.(check int) "overflow clamps high" 127 (Precision.quantize qp 50.0);
  Alcotest.(check int) "overflow clamps low" (-128) (Precision.quantize qp (-50.0));
  Alcotest.(check int) "zero is exact" 0 (Precision.quantize qp 0.0)

(* Non-finite and far out-of-range inputs saturate too: the clamp must
   happen before the float-to-int conversion, which is unspecified there
   (x86-64 returns 0, which would encode [-inf] as code 0). *)
let test_quantize_saturates () =
  let qp = Precision.qparams_of_absmax 1.0 in
  List.iter
    (fun (what, v, code) ->
      Alcotest.(check int) what code (Precision.quantize qp v))
    [ ("+inf", infinity, 127); ("-inf", neg_infinity, -128);
      ("1e30", 1e30, 127); ("-1e30", -1e30, -128); ("nan", Float.nan, 0) ]

(* Compile the gather [dst[i] = src[i]] into an int8 [dst] under [qp]
   (the encoding kernel), run it over f32 [values] and check each code
   against [Precision.quantize]'s. *)
let check_inline_codes qp values =
  let s = qp.Precision.scale in
  let n = List.length values in
  let pool = Buffer_pool.create () in
  let src = Buffer_pool.alloc pool "src" (Shape.create [ n ]) in
  List.iteri (Tensor.set1 src) values;
  ignore (Buffer_pool.alloc pool "dst" (Shape.create [ n ]));
  Buffer_pool.repack pool "dst" ~qparams:qp;
  let c =
    Ir_compile.compile ~lookup:(Buffer_pool.lookup pool)
      ~store_of:(Buffer_pool.store pool)
      Ir.
        [ loop "i" (int_ 0) (int_ n)
            [ store "dst" [ var "i" ] (load "src" [ var "i" ]) ] ]
  in
  Alcotest.(check bool) "encoding copy kernel" true
    (List.mem_assoc "i8_encode" (Ir_compile.kernel_stats c));
  Ir_compile.run c ();
  match Buffer_pool.store pool "dst" with
  | Tensor.Store (Precision.I8, _, g) ->
      for i = 0 to n - 1 do
        let v = Tensor.get1 src i in
        Alcotest.(check int)
          (Printf.sprintf "code of %h (scale %h)" v s)
          (Precision.quantize qp v)
          (Bigarray.Array1.get g.Tensor.data i)
      done
  | Tensor.Store (Precision.F32, _, _) -> Alcotest.fail "dst is not int8"

(* An f32 value [v] and a scale whose quotient [v /. scale] is exactly
   [t]: the first odd [|v|] for which one of the three doubles nearest
   [v /. t] divides back to [t]. A source holds f32 values, so this is
   how a quotient with more bits than f32 has reaches the rounding. *)
let reach t =
  let rec go k =
    if k > 401 then Alcotest.failf "no f32 value reaches the quotient %h" t;
    let v = Float.copy_sign (float_of_int k) t in
    let s0 = v /. t in
    match
      List.find_opt
        (fun s -> Float.equal (v /. s) t)
        [ s0; Float.succ s0; Float.pred s0 ]
    with
    | Some scale -> (v, { Precision.scale })
    | None -> go (k + 2)
  in
  go 1

(* The compiled int8 loops encode with their own copy of the rule (a
   call into [Precision] would box its argument, and the stdlib's round
   is a C call), so each code must be [Precision.quantize]'s: NaN, the
   infinities, both zeros, every half-way point [±(k + 0.5)·scale] and
   the values around both clamp ends, under three scales. The
   power-of-two scale makes every half-way point exact in f32, so ties
   are rounded; at scale 0.55 some half-way points round the other way
   if the division by the scale becomes a multiplication by its
   inverse. Then the quotients at the inline round's edges, each under
   its own scale: 0.5 and its neighbours (0.49999999999999994 +. 0.5
   rounds up to 1.0 in double), and ±(k + 0.5) with theirs, out to
   both clamp ends. *)
let test_inline_encode () =
  List.iter
    (fun qp ->
      let s = qp.Precision.scale in
      let halves =
        List.concat_map
          (fun k ->
            let h = (float_of_int k +. 0.5) *. s in
            [ h; -.h ])
          (List.init 260 Fun.id)
      in
      let ends =
        List.concat_map
          (fun q ->
            [ q *. s; (q -. 0.5) *. s; (q +. 0.5) *. s ])
          [ -129.0; -128.0; 127.0; 128.0 ]
      in
      check_inline_codes qp
        ([ Float.nan; infinity; neg_infinity; 0.0; -0.0; 1e30; -1e30 ]
        @ halves @ ends))
    [ Precision.qparams_of_absmax 2.0;
      { Precision.scale = 0.0625 };
      { Precision.scale = 0.55 } ];
  List.iter
    (fun h ->
      List.iter
        (fun t ->
          let v, qp = reach t in
          check_inline_codes qp [ v ])
        [ h; Float.succ h; Float.pred h; -.h; -.Float.succ h; -.Float.pred h ])
    [ 0.5; 1.5; 2.5; 63.5; 126.5; 127.5; 128.5 ]

(* ---- the gather's shadow codes ------------------------------------ *)

let int8_codes pool name : int array =
  match Buffer_pool.store pool name with
  | Tensor.Store (Precision.I8, _, g) ->
      Array.init (Bigarray.Array1.dim g.Tensor.data) (fun i ->
          Bigarray.Array1.get g.Tensor.data i)
  | Tensor.Store (Precision.F32, _, _) -> Alcotest.failf "%s is not int8" name

(* [dst[k, i] = src[i]] for k < 3 reads each source element three
   times, as an im2col gather does. Its codes come from a shadow that
   the section's entry encodes, so a run after the source changes
   through its f32 view must see the new values, not the codes of the
   first run. *)
let test_shadow_fresh () =
  let n = 16 in
  let pool = Buffer_pool.create () in
  let src = Buffer_pool.alloc pool "src" (Shape.create [ n ]) in
  ignore (Buffer_pool.alloc pool "dst" (Shape.create [ 3; n ]));
  let qp = Precision.qparams_of_absmax 1.0 in
  Buffer_pool.repack pool "dst" ~qparams:qp;
  let c =
    Ir_compile.compile ~lookup:(Buffer_pool.lookup pool)
      ~store_of:(Buffer_pool.store pool)
      Ir.
        [ loop "k" (int_ 0) (int_ 3)
            [ loop "i" (int_ 0) (int_ n)
                [ store "dst" [ var "k"; var "i" ] (load "src" [ var "i" ]) ] ] ]
  in
  Alcotest.(check (list (pair string int))) "one encoding gather"
    [ ("i8_encode", 1) ] (Ir_compile.kernel_stats c);
  List.iter
    (fun seed ->
      Tensor.fill_uniform (Rng.create seed) src ~lo:(-1.5) ~hi:1.5;
      Ir_compile.run c ();
      let codes = int8_codes pool "dst" in
      Array.iteri
        (fun j code ->
          let v = Tensor.get1 src (j mod n) in
          Alcotest.(check int)
            (Printf.sprintf "run %d: dst[%d] of %h" seed j v)
            (Precision.quantize qp v) code)
        codes)
    [ 1; 2 ]

(* A gather whose source the section writes, directly or through an
   alias, cannot read a shadow encoded at entry: it takes the decoded
   loop, and the section matches [Ir_eval] bit for bit. *)
let test_shadow_written_source ~through () =
  let n = 16 in
  let env () =
    let pool = Buffer_pool.create () in
    let src = Buffer_pool.alloc pool "src" (Shape.create [ n ]) in
    Tensor.fill_uniform (Rng.create 5) src ~lo:(-1.0) ~hi:1.0;
    ignore
      (Buffer_pool.alias pool "src_alias" ~target:"src"
         ~shape:(Shape.create [ 4; 4 ]));
    ignore (Buffer_pool.alloc pool "dst" (Shape.create [ 3; n ]));
    Buffer_pool.repack pool "dst" ~qparams:(Precision.qparams_of_absmax 1.0);
    pool
  in
  let write =
    match through with
    | `Name -> Ir.(store "src" [ var "i" ])
    | `Alias ->
        Ir.(store "src_alias" [ Idiv (var "i", int_ 4); Imod (var "i", int_ 4) ])
  in
  let stmts =
    Ir.
      [ loop "i" (int_ 0) (int_ n)
          [ write (Fbinop (Fmul, load "src" [ var "i" ], f 1.5)) ];
        loop "k" (int_ 0) (int_ 3)
          [ loop "i" (int_ 0) (int_ n)
              [ store "dst" [ var "k"; var "i" ] (load "src" [ var "i" ]) ] ] ]
  in
  let env1 = env () and env2 = env () in
  Ir_eval.run ~lookup:(Buffer_pool.lookup env1)
    ~store_of:(Buffer_pool.store env1) stmts;
  let c =
    Ir_compile.compile ~lookup:(Buffer_pool.lookup env2)
      ~store_of:(Buffer_pool.store env2) stmts
  in
  let stats = Ir_compile.kernel_stats c in
  Alcotest.(check bool) "decoded gather" true (List.mem_assoc "decoded" stats);
  Alcotest.(check bool)
    "no encoding gather" false (List.mem_assoc "i8_encode" stats);
  Ir_compile.run c ();
  Alcotest.(check (array int))
    "dst codes" (int8_codes env1 "dst") (int8_codes env2 "dst");
  let bits pool =
    Array.map Int32.bits_of_float (Tensor.to_array (Buffer_pool.lookup pool "src"))
  in
  Alcotest.(check (array int32)) "src bits" (bits env1) (bits env2)

(* ---- packed buffer-pool stores ------------------------------------ *)

let test_pool_repack () =
  let pool = Buffer_pool.create () in
  let t = Buffer_pool.alloc pool "w" (Shape.create [ 4; 4 ]) in
  for i = 0 to 15 do
    Tensor.set1 t i ((float_of_int i /. 15.0) -. 0.5)
  done;
  Alcotest.(check bool) "starts f32" true (Buffer_pool.is_f32 pool "w");
  let absmax = Tensor.store_absmax (Buffer_pool.store pool "w") in
  let qp = Precision.qparams_of_absmax absmax in
  Buffer_pool.repack pool "w" ~qparams:qp;
  Alcotest.(check bool) "packed" false (Buffer_pool.is_f32 pool "w");
  Alcotest.(check int) "1 byte/elem" 1 (Buffer_pool.elem_bytes pool "w");
  let back = Buffer_pool.read_f32 pool "w" in
  for i = 0 to 15 do
    let orig = (float_of_int i /. 15.0) -. 0.5 in
    if Float.abs (Tensor.get1 back i -. orig) > qp.Precision.scale /. 2.0 then
      Alcotest.failf "element %d: %g vs %g" i (Tensor.get1 back i) orig
  done;
  (* Precision-blind lookup must refuse a packed block... *)
  (match Buffer_pool.lookup pool "w" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "lookup of packed buffer should raise");
  (* ...and store-level fill survives it. *)
  Tensor.store_fill (Buffer_pool.store pool "w") 0.25;
  let v = Tensor.store_get1 (Buffer_pool.store pool "w") 0 in
  if Float.abs (v -. 0.25) > qp.Precision.scale /. 2.0 then
    Alcotest.failf "store_fill roundtrip: %g" v

let test_pool_repack_shrinks () =
  let pool = Buffer_pool.create () in
  ignore (Buffer_pool.alloc pool "a" (Shape.create [ 64 ]));
  let before = Buffer_pool.total_bytes pool in
  Buffer_pool.repack pool "a" ~qparams:(Precision.qparams_of_absmax 1.0);
  Alcotest.(check int) "quarter footprint" (before / 4)
    (Buffer_pool.total_bytes pool)

(* ---- candidates policy -------------------------------------------- *)

let compile_mlp () =
  let spec = Models.mlp ~batch:4 ~n_inputs:64 ~hidden:[ 16 ] ~n_classes:10 in
  (spec, Pipeline.compile ~seed:5 Config.default spec.Models.net)

let test_int8_candidates_policy () =
  let _spec, prog = compile_mlp () in
  let cands = Quantize.int8_candidates prog in
  Alcotest.(check bool) "weights eligible" true
    (List.mem "ip1.weights" cands && List.mem "ip_out.weights" cands);
  Alcotest.(check bool) "biases stay f32" false
    (List.exists (fun b -> List.mem b cands) [ "ip1.bias"; "ip_out.bias" ]);
  Alcotest.(check bool) "extern-touched loss stays f32" false
    (List.mem "loss" cands);
  (* FC activations are sum-accumulated into (bias add), so the
     Narrow_accum policy keeps them f32 too. *)
  Alcotest.(check bool) "Acc_sum targets stay f32" false
    (List.mem "ip1.value" cands)

(* ---- compiled vs interpreter on a quantized program --------------- *)

(* Two identical compiles of one net; quantize both with the SAME
   absmaxes; run one through the compiled executor and the other
   through Ir_eval's store-aware interpreter; every buffer must match
   exactly (both paths dispatch the same Qblas kernels and the same
   encode/decode, so quantized execution stays bit-deterministic).
   LeNet stores max-pool [-inf] fills, pool maxes and gathers from f32
   and from int8 pool outputs into int8 buffers; the VGG block is the
   int8 serving benchmark's model; in resnet_tiny int8 ReLUs read and
   write int8 storage, a shape no int8 kernel matches. [loops] lists
   the int8 loop kinds the executor must dispatch, and no others. *)
let test_quantized_compiled_vs_eval ~loops build () =
  let spec = build () in
  let prog_a = Pipeline.compile ~seed:5 Config.default spec.Models.net in
  let prog_b = Pipeline.compile ~seed:5 Config.default (build ()).Models.net in
  let exec_a = Executor.prepare prog_a in
  let data_buf = spec.Models.data_ens ^ ".value" in
  let fill pool =
    Tensor.fill_uniform (Rng.create 23) (Buffer_pool.lookup pool data_buf)
      ~lo:0.0 ~hi:1.0;
    Tensor.fill (Buffer_pool.lookup pool spec.Models.label_buf) 0.0
  in
  fill prog_a.Program.buffers;
  let keep =
    [ spec.Models.label_buf; spec.Models.loss_buf;
      spec.Models.output_ens ^ ".value" ]
  in
  let cands = Quantize.int8_candidates ~keep prog_a in
  Alcotest.(check bool) "has int8 candidates" true (cands <> []);
  let absmax =
    Quantize.calibrate ~exec:exec_a ~feed:(fun _ -> ()) ~batches:1 cands
  in
  let packed_a = Quantize.apply prog_a absmax in
  let packed_b = Quantize.apply prog_b absmax in
  Alcotest.(check int) "identical packing" packed_a packed_b;
  let exec_a = Executor.prepare prog_a in
  let int8_loops =
    List.filter_map
      (fun (k, _) ->
        if k = "decoded" || String.starts_with ~prefix:"i8_" k then Some k
        else None)
      (Executor.kernel_stats exec_a)
  in
  Alcotest.(check (list string)) "int8 loop kinds" loops int8_loops;
  fill prog_a.Program.buffers;
  fill prog_b.Program.buffers;
  Executor.forward exec_a;
  let pool_b = prog_b.Program.buffers in
  List.iter
    (fun (s : Program.section) ->
      Ir_eval.run
        ~lookup:(Buffer_pool.lookup pool_b)
        ~store_of:(Buffer_pool.store pool_b) s.Program.stmts)
    prog_b.Program.forward;
  let pool_a = prog_a.Program.buffers in
  List.iter
    (fun name ->
      let a = Buffer_pool.read_f32 pool_a name
      and b = Buffer_pool.read_f32 pool_b name in
      for i = 0 to Tensor.numel a - 1 do
        if not (Float.equal (Tensor.get1 a i) (Tensor.get1 b i)) then
          Alcotest.failf "%s[%d]: compiled %h vs eval %h" name i
            (Tensor.get1 a i) (Tensor.get1 b i)
      done)
    (Buffer_pool.names pool_a)

(* ---- int8 forward allocation ------------------------------------- *)

(* Every int8 loop of LeNet and the VGG block reads and writes codes
   inline, so an int8 forward allocates about what the f32 one does.
   When the gathers and pools ran through the store's decode and encode
   closures, which box a float per element, a batch-4 int8 forward
   allocated 892 K minor words against the f32 forward's 4 K (lenet) and
   383 K against 40 K (vgg-block). *)
let test_int8_allocation () =
  let scale = Models.bench_scale in
  List.iter
    (fun (name, build) ->
      let words precision =
        let spec = build () in
        let config =
          Config.with_flags ~num_domains:1 ~precision:`F32 Config.default
        in
        let exec =
          Executor.prepare
            ~opts:(Executor.Run_opts.with_domains 1 Executor.Run_opts.default)
            (Pipeline.compile ~seed:1 config spec.Models.net)
        in
        let data = Executor.lookup exec (spec.Models.data_ens ^ ".value") in
        let feed _ = Tensor.fill_uniform (Rng.create 3) data ~lo:0.0 ~hi:1.0 in
        feed 0;
        let exec =
          match precision with
          | `F32 -> exec
          | `I8 ->
              let keep =
                [ spec.Models.label_buf; spec.Models.loss_buf;
                  spec.Models.output_ens ^ ".value" ]
              in
              fst (Quantize.quantize ~feed ~keep exec)
        in
        Executor.forward exec;
        let w0 = Gc.minor_words () in
        Executor.forward exec;
        Gc.minor_words () -. w0
      in
      let w32 = words `F32 and w8 = words `I8 in
      if w8 > 2.0 *. w32 then
        Alcotest.failf
          "%s: an int8 forward allocates %.0f minor words, over twice the f32 \
           forward's %.0f"
          name w8 w32)
    [
      ( "lenet",
        fun () -> Models.lenet ~batch:4 ~image:scale.Models.image ~n_classes:10 () );
      ("vgg-block", fun () -> Models.vgg_first_block ~batch:4 ~scale);
    ]

(* ---- int8 fidelity across the stock models ------------------------ *)

let stock_models : (string * (unit -> Models.spec)) list =
  let scale = { Models.image = 32; width_div = 8; fc_div = 32 } in
  [
    ("mlp", fun () -> Models.mlp ~batch:8 ~n_inputs:64 ~hidden:[ 16 ] ~n_classes:10);
    ("lenet", fun () -> Models.lenet ~batch:4 ~image:16 ~n_classes:10 ());
    ( "vgg-block",
      fun () ->
        Models.vgg_first_block ~batch:4 ~scale:{ scale with Models.image = 16 } );
    ("alexnet", fun () -> Models.alexnet ~batch:2 ~scale ());
    ("vgg", fun () -> Models.vgg ~batch:1 ~scale);
    ("overfeat", fun () -> Models.overfeat ~batch:1 ~scale);
  ]

(* End-to-end post-training quantization per stock model: train briefly
   on a separable synthetic problem (an untrained net's softmax is
   near-uniform, so its argmax is decided by noise below the
   quantization step), copy the trained parameters into a second
   identical compile, quantize that one on training batches, and
   require >= 99% top-1 agreement with the f32 executor on held-out
   inputs. *)
let test_int8_stock_fidelity () =
  List.iter
    (fun (name, build) ->
      let spec = build () in
      let prog32 = Pipeline.compile ~seed:1 Config.default spec.Models.net in
      let exec32 = Executor.prepare prog32 in
      let out_buf = spec.Models.output_ens ^ ".value" in
      let data_buf = spec.Models.data_ens ^ ".value" in
      let batch = prog32.Program.batch_size in
      let data32 = Executor.lookup exec32 data_buf in
      let labels32 = Executor.lookup exec32 spec.Models.label_buf in
      let classes = Tensor.numel (Executor.lookup exec32 out_buf) / batch in
      let item_shape = List.tl (Array.to_list (Tensor.shape data32)) in
      let ds =
        Synthetic.gaussian_classes ~seed:7 ~n:(batch * 24) ~n_classes:classes
          ~item_shape ~separation:4.0
      in
      let train_set, eval_set = Synthetic.split ds ~at:(batch * 16) in
      let params =
        { Solver.lr_policy = Lr_policy.Fixed 0.01; momentum = 0.9;
          weight_decay = 0.0 }
      in
      (* Clipping keeps the deeper nets from diverging at this lr; a
         diverged net has huge dynamic ranges, which makes the int8
         step coarse and the comparison meaningless. *)
      let solver = Solver.create ~clip_norm:1.0 ~params Solver.Sgd exec32 in
      ignore
        (Training.fit ~log_every:1_000_000 ~solver ~exec:exec32
           ~data:train_set ~data_buf ~label_buf:spec.Models.label_buf
           ~loss_buf:spec.Models.loss_buf ~iters:80 ());
      (* Same seed => bit-identical init; blit carries the training. *)
      let spec8 = build () in
      let prog8 = Pipeline.compile ~seed:1 Config.default spec8.Models.net in
      let exec8 = Executor.prepare prog8 in
      List.iter
        (fun (p : Program.param) ->
          Tensor.blit
            ~src:(Executor.lookup exec32 p.Program.value_buf)
            ~dst:(Executor.lookup exec8 p.Program.value_buf))
        prog32.Program.params;
      let data8 = Executor.lookup exec8 data_buf in
      let labels8 = Executor.lookup exec8 spec.Models.label_buf in
      let feed i =
        Synthetic.fill_batch train_set ~batch_index:i ~data:data8
          ~labels:labels8
      in
      let keep = [ spec.Models.label_buf; spec.Models.loss_buf; out_buf ] in
      let exec8, packed = Quantize.quantize ~feed ~batches:2 ~keep exec8 in
      Alcotest.(check bool) (name ^ " packs buffers") true (packed > 0);
      (* The returned executor is compiled against the packed stores:
         its GEMMs read int8 weights. *)
      Alcotest.(check bool) (name ^ " runs int8 GEMMs") true
        (List.mem_assoc "gemm_f32i8" (Executor.kernel_stats exec8));
      let batches = 8 in
      let agree = ref 0 and total = ref 0 in
      for i = 0 to batches - 1 do
        Synthetic.fill_batch eval_set ~batch_index:i ~data:data32
          ~labels:labels32;
        Synthetic.fill_batch eval_set ~batch_index:i ~data:data8
          ~labels:labels8;
        Executor.forward exec32;
        Executor.forward exec8;
        let o32 = Executor.read_f32 exec32 out_buf
        and o8 = Executor.read_f32 exec8 out_buf in
        for b = 0 to batch - 1 do
          let top t =
            let best = ref 0 and bv = ref neg_infinity in
            for c = 0 to classes - 1 do
              let v = Tensor.get1 t ((b * classes) + c) in
              if v > !bv then begin
                bv := v;
                best := c
              end
            done;
            !best
          in
          if top o32 = top o8 then incr agree;
          incr total
        done
      done;
      let pct = float_of_int !agree /. float_of_int !total in
      if pct < 0.99 then
        Alcotest.failf "%s: int8 top-1 agreement %.1f%% (%d/%d) < 99%%" name
          (pct *. 100.0) !agree !total)
    stock_models

(* Stock LeNet has no ReLU before its pools, so its int8 max-pools see
   negative inputs, and their [-inf] initializers must encode as the
   lowest code: otherwise every window whose inputs are all negative
   pools to 0. A seeded int8 forward must stay within 5% of each
   buffer's f32 absmax at both pools and at the logits. *)
let test_int8_lenet_pools () =
  let build () = Models.lenet ~batch:8 ~n_classes:10 () in
  let spec = build () in
  let data_buf = spec.Models.data_ens ^ ".value" in
  let prog32 = Pipeline.compile ~seed:1 Config.default spec.Models.net in
  let prog8 = Pipeline.compile ~seed:1 Config.default (build ()).Models.net in
  let exec32 = Executor.prepare prog32 and exec8 = Executor.prepare prog8 in
  let fill exec =
    Tensor.fill_uniform (Rng.create 23) (Executor.lookup exec data_buf)
      ~lo:0.0 ~hi:1.0;
    Tensor.fill (Executor.lookup exec spec.Models.label_buf) 0.0
  in
  let keep =
    [ data_buf; spec.Models.label_buf; spec.Models.loss_buf;
      spec.Models.output_ens ^ ".value" ]
  in
  let exec8, _ =
    Quantize.quantize ~feed:(fun _ -> fill exec8) ~batches:1 ~keep exec8
  in
  fill exec32;
  fill exec8;
  Executor.forward exec32;
  Executor.forward exec8;
  List.iter
    (fun buf ->
      let f = Executor.read_f32 exec32 buf and q = Executor.read_f32 exec8 buf in
      let absmax = ref 0.0 and err = ref 0.0 in
      for i = 0 to Tensor.numel f - 1 do
        absmax := Float.max !absmax (Float.abs (Tensor.get1 f i));
        err := Float.max !err (Float.abs (Tensor.get1 f i -. Tensor.get1 q i))
      done;
      if !err > 0.05 *. !absmax then
        Alcotest.failf "%s: int8 is off by %g, over 5%% of the f32 absmax %g"
          buf !err !absmax)
    [ "pool1.value"; "pool2.value"; "ip2.value" ]

(* ---- calibration over non-finite values --------------------------- *)

(* One infinity in a calibration batch must not give any buffer an
   infinite scale: calibration reads finite values only, so the
   infinity saturates at encode like any value past the range. With an
   infinite scale on the VGG block's first gather, every later forward
   on finite data returned NaN. Eval batch [i] is the calibration draw
   [i] without the infinity, plus two draws calibration never saw. *)
let test_int8_poisoned_calibration () =
  let build () = Models.vgg_first_block ~batch:4 ~scale:Models.bench_scale in
  let spec = build () in
  let data_buf = spec.Models.data_ens ^ ".value" in
  let out_buf = spec.Models.output_ens ^ ".value" in
  let prepare spec =
    Executor.prepare (Pipeline.compile ~seed:1 Config.default spec.Models.net)
  in
  let exec32 = prepare spec and exec8 = prepare (build ()) in
  let feed exec i =
    Tensor.fill_uniform (Rng.create (1000 + i)) (Executor.lookup exec data_buf)
      ~lo:0.0 ~hi:1.0
  in
  let poisoned i =
    feed exec8 i;
    if i = 0 then Tensor.set1 (Executor.lookup exec8 data_buf) 0 infinity
  in
  let keep = [ spec.Models.label_buf; spec.Models.loss_buf; out_buf ] in
  let exec8, packed = Quantize.quantize ~feed:poisoned ~keep exec8 in
  Alcotest.(check bool) "packs buffers" true (packed > 0);
  let pool = (Executor.program exec8).Program.buffers in
  List.iter
    (fun name ->
      match Buffer_pool.store pool name with
      | Tensor.Store (Precision.I8, qp, _) ->
          if not (Float.is_finite qp.Precision.scale) then
            Alcotest.failf "%s: int8 scale %h" name qp.Precision.scale
      | Tensor.Store (Precision.F32, _, _) -> ())
    (Buffer_pool.names pool);
  let batch = (Executor.program exec8).Program.batch_size in
  let top1 out =
    let classes = Tensor.numel out / batch in
    List.init batch (fun b ->
        let best = ref 0 in
        for c = 1 to classes - 1 do
          if Tensor.get1 out ((b * classes) + c)
             > Tensor.get1 out ((b * classes) + !best)
          then best := c
        done;
        !best)
  in
  for i = 0 to 5 do
    feed exec32 i;
    feed exec8 i;
    Executor.forward exec32;
    Executor.forward exec8;
    let o8 = Executor.read_f32 exec8 out_buf in
    for j = 0 to Tensor.numel o8 - 1 do
      if not (Float.is_finite (Tensor.get1 o8 j)) then
        Alcotest.failf "batch %d: int8 output[%d] = %h" i j (Tensor.get1 o8 j)
    done;
    Alcotest.(check (list int))
      (Printf.sprintf "batch %d: int8 top-1 = f32 top-1" i)
      (top1 (Executor.read_f32 exec32 out_buf))
      (top1 o8)
  done;
  Alcotest.check_raises "an infinite absmax is refused"
    (Invalid_argument "Precision.qparams_of_absmax: non-finite absmax inf")
    (fun () -> ignore (Precision.qparams_of_absmax infinity))

(* ---- Narrow_accum lint -------------------------------------------- *)

let test_narrow_accum_lint () =
  let open Ir in
  let pool = Buffer_pool.create () in
  ignore (Buffer_pool.alloc pool "acc" (Shape.create [ 8 ]));
  ignore (Buffer_pool.alloc pool "src" (Shape.create [ 8 ]));
  let stmts =
    [ loop "i" (int_ 0) (int_ 8)
        [ Accum
            { op = Acc_sum; buf = "acc"; idx = [ var "i" ];
              value = Load ("src", [ var "i" ]) } ] ]
  in
  let shape_of b =
    if Buffer_pool.mem pool b then Some (Buffer_pool.shape pool b) else None
  in
  let storage_of b =
    if Buffer_pool.mem pool b then Some (Buffer_pool.precision pool b) else None
  in
  let regions = [ ("sec", [], stmts) ] in
  (* f32 accumulation target: clean. *)
  let rep = Ir_bounds.analyze ~shape_of ~storage_of regions in
  Alcotest.(check bool) "f32 accum not flagged" false
    (List.exists
       (fun (f : Ir_bounds.finding) -> f.Ir_bounds.kind = Ir_bounds.Narrow_accum)
       (Ir_bounds.all_findings rep));
  (* Packed target: flagged, but non-fatal (a lint, not a refusal). *)
  Buffer_pool.repack pool "acc" ~qparams:(Precision.qparams_of_absmax 1.0);
  let rep = Ir_bounds.analyze ~shape_of ~storage_of regions in
  let narrow =
    List.filter
      (fun (f : Ir_bounds.finding) -> f.Ir_bounds.kind = Ir_bounds.Narrow_accum)
      (Ir_bounds.all_findings rep)
  in
  Alcotest.(check int) "packed accum flagged once" 1 (List.length narrow);
  Alcotest.(check bool) "lint is not fatal" true
    (Ir_bounds.fatal_findings rep = [])

(* ---- golden dump of a quantized program --------------------------- *)

let golden_path =
  if Sys.file_exists "golden" then "golden/mlp_int8_buffers.txt"
  else "test/golden/mlp_int8_buffers.txt"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Pin the buffer-table section of the dump after int8 packing: the
   [int8] storage markers and shrunken byte counts are the user-visible
   contract of quantized compilation (the IR text itself is unchanged —
   quantization is a storage-level decision). *)
let test_int8_dump_golden () =
  let spec = Models.mlp ~batch:4 ~n_inputs:16 ~hidden:[ 8 ] ~n_classes:4 in
  let prog = Pipeline.compile ~seed:3 Config.default spec.Models.net in
  let exec = Executor.prepare prog in
  Tensor.fill_uniform (Rng.create 3)
    (Executor.lookup exec (spec.Models.data_ens ^ ".value"))
    ~lo:0.0 ~hi:1.0;
  Tensor.fill (Executor.lookup exec spec.Models.label_buf) 0.0;
  let keep =
    [ spec.Models.label_buf; spec.Models.loss_buf;
      spec.Models.output_ens ^ ".value" ]
  in
  ignore (Quantize.quantize ~feed:(fun _ -> ()) ~batches:1 ~keep exec);
  let dump = Pipeline.dump prog in
  (* Keep only the buffer table: byte counts and [int8] markers, no IR
     text to churn. *)
  let table =
    let rec skip = function
      | "=== buffers ===" :: rest -> keep rest []
      | _ :: rest -> skip rest
      | [] -> Alcotest.fail "dump has no buffer table"
    and keep lines acc =
      match lines with
      | "=== parameters ===" :: _ | [] -> List.rev acc
      | line :: rest -> keep rest (line :: acc)
    in
    String.concat "\n" (skip (String.split_on_char '\n' dump)) ^ "\n"
  in
  match Sys.getenv_opt "LATTE_UPDATE_GOLDEN" with
  | Some _ ->
      let oc = open_out_bin golden_path in
      output_string oc table;
      close_out oc
  | None ->
      let expected = read_file golden_path in
      Alcotest.(check string) "int8 buffer table" expected table

let suite =
  [
    QCheck_alcotest.to_alcotest prop_qparams_roundtrip;
    Alcotest.test_case "quantize clamps" `Quick test_quantize_clamps;
    Alcotest.test_case "quantize saturates non-finite" `Quick
      test_quantize_saturates;
    Alcotest.test_case "inline encode = quantize" `Quick test_inline_encode;
    Alcotest.test_case "shadow codes are fresh each run" `Quick test_shadow_fresh;
    Alcotest.test_case "gather from a written source is decoded" `Quick
      (test_shadow_written_source ~through:`Name);
    Alcotest.test_case "gather from a written alias is decoded" `Quick
      (test_shadow_written_source ~through:`Alias);
    Alcotest.test_case "pool repack roundtrip" `Quick test_pool_repack;
    Alcotest.test_case "repack shrinks footprint" `Quick test_pool_repack_shrinks;
    Alcotest.test_case "int8 candidate policy" `Quick test_int8_candidates_policy;
    Alcotest.test_case "quantized compiled = interpreter" `Quick
      (test_quantized_compiled_vs_eval
         ~loops:[ "i8_copy"; "i8_encode"; "i8_fill"; "i8_max" ]
         (fun () -> Models.lenet ~batch:2 ~image:16 ~n_classes:4 ()));
    Alcotest.test_case "quantized compiled = interpreter (vgg-block)" `Quick
      (test_quantized_compiled_vs_eval
         ~loops:[ "i8_encode"; "i8_fill"; "i8_max" ]
         (fun () -> Models.vgg_first_block ~batch:2 ~scale:Models.bench_scale));
    Alcotest.test_case "quantized compiled = interpreter (resnet-tiny)" `Quick
      (test_quantized_compiled_vs_eval
         ~loops:[ "decoded"; "i8_copy"; "i8_encode" ]
         (fun () -> Models.resnet_tiny ~batch:2 ~n_classes:4 ()));
    Alcotest.test_case "int8 stock-model fidelity" `Slow test_int8_stock_fidelity;
    Alcotest.test_case "int8 lenet pools track f32" `Quick test_int8_lenet_pools;
    Alcotest.test_case "int8 calibration skips an infinity" `Quick
      test_int8_poisoned_calibration;
    Alcotest.test_case "int8 forward allocates like f32" `Quick
      test_int8_allocation;
    Alcotest.test_case "narrow-accum lint" `Quick test_narrow_accum_lint;
    Alcotest.test_case "int8 dump golden" `Quick test_int8_dump_golden;
  ]
