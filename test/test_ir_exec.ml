(* Semantic equivalence of the code generator against the reference
   interpreter, on hand-written kernels and on randomly generated loop
   nests (this is the test that pins down the specialized innermost-loop
   kernels in Ir_compile). *)

open Ir

let v = var
let i = int_

let dims = [| 4; 5; 6 |]

let make_env seed =
  let pool = Buffer_pool.create () in
  let rng = Rng.create seed in
  let mk name shape =
    let t = Buffer_pool.alloc pool name (Shape.create shape) in
    Tensor.fill_uniform rng t ~lo:(-2.0) ~hi:2.0
  in
  mk "src" [ dims.(0); dims.(1); dims.(2) ];
  mk "src2" [ dims.(0); dims.(1); dims.(2) ];
  mk "dst" [ dims.(0); dims.(1); dims.(2) ];
  mk "acc" [ dims.(0) ];
  pool

let clone_env pool =
  let pool' = Buffer_pool.create () in
  List.iter
    (fun name ->
      let t = Buffer_pool.lookup pool name in
      let t' = Buffer_pool.alloc pool' name (Tensor.shape t) in
      Tensor.blit ~src:t ~dst:t')
    (Buffer_pool.names pool);
  pool'

(* [plant] edits the interpreter's buffers before the compiled side's
   are cloned from them. *)
let run_both ?(seed = 1) ?(plant = ignore) stmts =
  let env1 = make_env seed in
  plant env1;
  let env2 = clone_env env1 in
  Ir_eval.run ~lookup:(Buffer_pool.lookup env1) stmts;
  let compiled = Ir_compile.compile ~lookup:(Buffer_pool.lookup env2) stmts in
  Ir_compile.run compiled ();
  (env1, env2, compiled)

let check_agree ?(bufs = [ "src"; "src2"; "dst"; "acc" ]) (env1, env2, _) =
  List.iter
    (fun b ->
      let d =
        Tensor.max_abs_diff (Buffer_pool.lookup env1 b) (Buffer_pool.lookup env2 b)
      in
      Alcotest.(check bool) (Printf.sprintf "%s agrees (diff %g)" b d) true (d < 1e-5))
    bufs

(* Every element bit for bit: NaN payloads and the sign of zero count. *)
let check_bitwise ?(bufs = [ "src"; "src2"; "dst"; "acc" ]) (env1, env2, _) =
  List.iter
    (fun b ->
      let x = Tensor.to_array (Buffer_pool.lookup env1 b)
      and y = Tensor.to_array (Buffer_pool.lookup env2 b) in
      Array.iteri
        (fun k u ->
          if not (Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float y.(k)))
          then Alcotest.failf "%s[%d]: interpreted %h, compiled %h" b k u y.(k))
        x)
    bufs

(* IEEE special values at fixed positions of [src]. *)
let specials = [ nan; infinity; neg_infinity; 0.0; -0.0 ]

let plant_specials env =
  let src = Buffer_pool.lookup env "src" in
  List.iteri (fun k x -> Tensor.set1 src (7 * k) x) specials

let nest3 body =
  [
    loop "x" (i 0) (i dims.(0))
      [ loop "y" (i 0) (i dims.(1)) [ loop "z" (i 0) (i dims.(2)) body ] ];
  ]

let test_copy_kernel () =
  let r = run_both (nest3 [ store "dst" [ v "x"; v "y"; v "z" ] (load "src" [ v "x"; v "y"; v "z" ]) ]) in
  check_agree r;
  let _, _, compiled = r in
  Alcotest.(check bool) "copy_strided kernel fired" true
    (List.mem_assoc "copy_strided" (Ir_compile.kernel_stats compiled))

(* The relu kernel computes [Float.max v c] without the call, so it must
   agree bit for bit with Ir_eval on NaN (propagated), infinities and
   signed zeros, for any constant it accepts; -0.0 takes the generic
   loop. *)
let test_relu_kernel () =
  List.iter
    (fun c ->
      let r =
        run_both ~plant:plant_specials
          (nest3
             [ store "dst" [ v "x"; v "y"; v "z" ]
                 (Fbinop (Fmax, load "src" [ v "x"; v "y"; v "z" ], f c)) ])
      in
      check_bitwise r;
      let _, _, compiled = r in
      Alcotest.(check bool)
        (Printf.sprintf "relu kernel fired for %h" c)
        (not (Float.sign_bit c && c = 0.0))
        (List.mem_assoc "relu" (Ir_compile.kernel_stats compiled)))
    [ 0.0; -0.0; 1.5; -1.5; infinity; neg_infinity ]

(* A dot-product nest takes the fma kernel, which rounds the
   accumulator to f32 at every step in Ir_eval's order. *)
let test_dot_kernel () =
  let stmts =
    [
      loop "x" (i 0) (i dims.(0))
        [
          loop "y" (i 0) (i dims.(1))
            [
              loop "z" (i 0) (i dims.(2))
                [
                  accum "acc" [ v "x" ]
                    (Fbinop
                       ( Fmul,
                         load "src" [ v "x"; v "y"; v "z" ],
                         load "src2" [ v "x"; v "y"; v "z" ] ));
                ];
            ];
        ];
    ]
  in
  let r = run_both ~plant:plant_specials stmts in
  check_bitwise r;
  let _, _, compiled = r in
  Alcotest.(check bool) "fma kernel fired" true
    (List.mem_assoc "fma" (Ir_compile.kernel_stats compiled))

let test_maxacc_strided () =
  (* Max-accumulate with a non-unit stride source access. *)
  let stmts =
    [
      loop "x" (i 0) (i dims.(0))
        [
          loop "y" (i 0) (i dims.(1))
            [ accum_max "acc" [ v "x" ] (load "src" [ v "x"; v "y"; i 3 ]) ];
        ];
    ]
  in
  check_agree (run_both stmts)

let test_select_guard () =
  (* Bounds-check Select like the padded copy tasks emit. *)
  let open Ir.Infix in
  let stmts =
    nest3
      [
        store "dst" [ v "x"; v "y"; v "z" ]
          (Select
             ( Cand
                 ( Icmp (Cge, (v "z" -! i 1), i 0),
                   Icmp (Clt, (v "z" -! i 1), i dims.(2)) ),
               load "src" [ v "x"; v "y"; v "z" -! i 1 ],
               f 0.0 ));
      ]
  in
  check_agree (run_both stmts)

let test_if_stmt () =
  let stmts =
    nest3
      [
        If
          ( Fcmp (Cgt, load "src" [ v "x"; v "y"; v "z" ], f 0.0),
            [ accum "dst" [ v "x"; v "y"; v "z" ] (f 1.0) ],
            [ accum "dst" [ v "x"; v "y"; v "z" ] (f (-1.0)) ] );
      ]
  in
  check_agree (run_both stmts)

(* Compiled GEMMs run Blas.gemm and Ir_eval runs its oracle,
   Blas.gemm_naive; both follow one summation rule, so they agree bit
   for bit in every orientation, with IEEE specials planted in A. *)
let test_gemm_stmt () =
  List.iter
    (fun (transa, transb) ->
      let g =
        Gemm
          {
            transa;
            transb;
            m = i 4;
            n = i 6;
            k = i 5;
            a = "src";
            off_a = i 0;
            b = "src2";
            off_b = i 0;
            c = "dst";
            off_c = i 0;
            alpha = -1.75;
            beta = 0.5;
            gemm_tile = None;
          }
      in
      check_bitwise (run_both ~plant:plant_specials [ g ]))
    [ (false, false); (true, false); (false, true); (true, true) ]

(* The GEMM kernels never check bounds, so both paths check a call's
   operand spans before dispatch: C = [8, 24) of a 16-element buffer
   must raise, naming C, and leave C untouched. *)
let test_gemm_span_checked () =
  let g =
    {
      transa = false;
      transb = false;
      m = i 4;
      n = i 4;
      k = i 4;
      a = "ga";
      off_a = i 0;
      b = "gb";
      off_b = i 0;
      c = "gc";
      off_c = i 8;
      alpha = 1.0;
      beta = 1.0;
      gemm_tile = None;
    }
  in
  let check_path what run =
    let pool = Buffer_pool.create () in
    let rng = Rng.create 3 in
    List.iter
      (fun name ->
        Tensor.fill_uniform rng (Buffer_pool.alloc pool name (Shape.create [ 16 ]))
          ~lo:(-1.0) ~hi:1.0)
      [ "ga"; "gb"; "gc" ];
    let before = Tensor.to_array (Buffer_pool.lookup pool "gc") in
    (match run (Buffer_pool.lookup pool) [ Gemm g ] with
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument msg ->
        if not (Test_util.contains msg "out-of-bounds gemm operand C") then
          Alcotest.failf "%s: unexpected message %S" what msg);
    Alcotest.(check (array (float 0.0)))
      (what ^ ": C unchanged") before
      (Tensor.to_array (Buffer_pool.lookup pool "gc"))
  in
  check_path "Ir_eval" (fun lookup stmts -> Ir_eval.run ~lookup stmts);
  check_path "Ir_compile" (fun lookup stmts ->
      Ir_compile.run (Ir_compile.compile ~lookup stmts) ())

let test_memset () =
  check_agree (run_both [ Memset { buf = "dst"; value = 3.5 } ])

let test_dynamic_bounds () =
  (* Triangular loop: inner bound depends on the outer variable. *)
  let stmts =
    [
      loop "x" (i 0) (i dims.(0))
        [ loop "y" (i 0) (Imin (v "x", i dims.(1)))
            [ accum "acc" [ v "x" ] (load "src" [ v "x"; v "y"; i 0 ]) ] ];
    ]
  in
  check_agree (run_both stmts)

let test_float_of_int () =
  let stmts =
    [ loop "x" (i 0) (i dims.(0)) [ store "acc" [ v "x" ] (Float_of_int (v "x")) ] ]
  in
  check_agree (run_both stmts)

(* Random program generation. *)
let gen_program =
  let open QCheck.Gen in
  let gen_idx var_exts =
    (* Affine index within [0, ext): var, constant, or clamped var+c. *)
    let* kind = int_range 0 2 in
    match (kind, var_exts) with
    | 0, (vname, _) :: _ -> return (Ir.var vname)
    | 1, _ ->
        let* c = int_range 0 2 in
        return (Ir.int_ c)
    | _, (vname, ext) :: _ ->
        let* c = int_range 0 1 in
        return (Imin (Iadd (Ir.var vname, Iconst c), Iconst (ext - 1)))
    | _, [] -> return (Ir.int_ 0)
  in
  let gen_idx3 vars =
    let pick d =
      let avail = List.filteri (fun k _ -> k <= d) [ ("x", dims.(0)); ("y", dims.(1)); ("z", dims.(2)) ] in
      gen_idx (List.rev (List.filter (fun (n, _) -> List.mem_assoc n vars) avail))
    in
    let* a = pick 0 and* b = pick 1 and* c = pick 2 in
    return [ a; b; c ]
  in
  let rec gen_fexpr vars depth =
    if depth = 0 then
      QCheck.Gen.oneof
        [
          QCheck.Gen.map Ir.f (float_range (-2.0) 2.0);
          (let* idx = gen_idx3 vars in
           return (Ir.load "src" idx));
          (let* idx = gen_idx3 vars in
           return (Ir.load "src2" idx));
        ]
    else
      QCheck.Gen.oneof
        [
          gen_fexpr vars 0;
          (let* op = oneofl [ Fadd; Fsub; Fmul; Fmin; Fmax ] in
           let* a = gen_fexpr vars (depth - 1) and* b = gen_fexpr vars (depth - 1) in
           return (Fbinop (op, a, b)));
          (let* op = oneofl [ Neg; Abs; Tanh; Sigmoid ] in
           let* a = gen_fexpr vars (depth - 1) in
           return (Funop (op, a)));
          (let* a = gen_fexpr vars (depth - 1) and* b = gen_fexpr vars (depth - 1) in
           let* c1 = gen_fexpr vars 0 and* c2 = gen_fexpr vars 0 in
           return (Select (Fcmp (Cgt, c1, c2), a, b)));
        ]
  in
  let random_leaf =
    let* depth = int_range 1 2 in
    let vars = [ ("x", dims.(0)); ("y", dims.(1)); ("z", dims.(2)) ] in
    let* value = gen_fexpr vars depth in
    let* idx = gen_idx3 vars in
    let* acc_kind = int_range 0 2 in
    return
      (match acc_kind with
      | 0 -> Ir.store "dst" idx value
      | 1 -> Ir.accum "dst" idx value
      | _ -> Ir.accum_max "dst" idx value)
  in
  (* The leaf shapes the specialized kernels match. Each index is affine
     (the loop variable of its dimension or a constant), so the strided
     compiler takes the nest; [inner] decides whether dimension 2 steps
     with the innermost loop. *)
  let affine_idx ~inner =
    let pick var = oneof [ return (Ir.var var); map Ir.int_ (int_range 0 2) ] in
    let* a = pick "x" and* b = pick "y" in
    let* c = if inner then return (Ir.var "z") else map Ir.int_ (int_range 0 2) in
    return [ a; b; c ]
  in
  let any_idx = bool >>= fun inner -> affine_idx ~inner in
  let load_src = map (Ir.load "src") any_idx in
  let kernel_leaf =
    oneof
      [
        (* copy_strided *)
        map2 (Ir.store "dst") any_idx load_src;
        (* acc_add *)
        map2 (Ir.accum "dst") any_idx load_src;
        (* acc_max *)
        map2 (Ir.accum_max "dst") any_idx load_src;
        (* relu: the source steps like the destination *)
        (let* inner = bool in
         let* d = affine_idx ~inner and* s = affine_idx ~inner in
         let* c = oneofl [ 0.0; 0.5; -1.0 ] in
         return (Ir.store "dst" d (Fbinop (Fmax, Ir.load "src" s, Ir.f c))));
        (* fma into a destination that does not stride in the innermost
           loop: a dot product *)
        (let* d = affine_idx ~inner:false in
         let* a = load_src and* b = map (Ir.load "src2") any_idx in
         return (Ir.accum "dst" d (Fbinop (Fmul, a, b))));
        (* a constant store, as a max-pool's initializer *)
        (let* c = oneofl [ neg_infinity; 0.5; -1.0 ] in
         map (fun d -> Ir.store "dst" d (Ir.f c)) any_idx);
      ]
  in
  let* body = frequency [ (1, random_leaf); (1, kernel_leaf) ] in
  return
    [
      Ir.loop "x" (Iconst 0) (Iconst dims.(0))
        [
          Ir.loop "y" (Iconst 0) (Iconst dims.(1))
            [ Ir.loop "z" (Iconst 0) (Iconst dims.(2)) [ body ] ];
        ];
    ]

(* Storage plans: the buffers packed at int8, each with the absmax its
   code is calibrated to. Everything f32, or dst packed with src and
   src2 each packed or left f32, so f32 operands feed a packed
   destination too. [src]'s absmax is [dst]'s or half of it, so an int8
   copy into [dst] either keeps the code or re-encodes it. *)
let gen_plan =
  let open QCheck.Gen in
  let maybe b absmax =
    map (fun packed -> if packed then [ (b, absmax) ] else []) bool
  in
  oneof
    [
      return [];
      (let* src_absmax = oneofl [ 2.0; 1.0 ] in
       map2
         (fun s s2 -> s @ s2 @ [ ("dst", 2.0) ])
         (maybe "src" src_absmax) (maybe "src2" 2.0));
    ]

let print_case (plan, stmts) =
  Printf.sprintf "int8 storage [%s]\n%s"
    (String.concat ", "
       (List.map (fun (b, absmax) -> Printf.sprintf "%s@%g" b absmax) plan))
    (Ir_printer.stmts_to_string stmts)

(* Every storage plan must match bit for bit: each kernel performs the
   interpreter's float operations in the interpreter's order. [src]
   carries NaN, infinities and signed zeros at fixed positions. Each
   compile's [kernel_stats] are added into [reached]. *)
let prop_compiled_matches_interpreted reached =
  QCheck.Test.make ~count:1000 ~name:"compiled = interpreted on random nests"
    (QCheck.make ~print:print_case (QCheck.Gen.pair gen_plan gen_program))
    (fun (plan, stmts) ->
      let env1 = make_env 99 in
      plant_specials env1;
      let env2 = clone_env env1 in
      List.iter
        (fun (b, absmax) ->
          List.iter
            (fun env ->
              Buffer_pool.repack env b
                ~qparams:(Precision.qparams_of_absmax absmax))
            [ env1; env2 ])
        plan;
      Ir_eval.run ~lookup:(Buffer_pool.lookup env1)
        ~store_of:(Buffer_pool.store env1) stmts;
      let compiled =
        Ir_compile.compile ~lookup:(Buffer_pool.lookup env2)
          ~store_of:(Buffer_pool.store env2) stmts
      in
      List.iter
        (fun (k, n) ->
          let seen = Option.value ~default:0 (Hashtbl.find_opt reached k) in
          Hashtbl.replace reached k (seen + n))
        (Ir_compile.kernel_stats compiled);
      Ir_compile.run compiled ();
      let bits x = Int64.bits_of_float x in
      List.for_all
        (fun b ->
          let x = Buffer_pool.read_f32 env1 b and y = Buffer_pool.read_f32 env2 b in
          Array.for_all2
            (fun u w -> Int64.equal (bits u) (bits w))
            (Tensor.to_array x) (Tensor.to_array y))
        [ "dst"; "acc" ])

(* The property under a fixed seed. A kernel that changes float order
   is caught only on the nests it compiles, so each kept kernel must be
   compiled at least [floor] times over the run. *)
let test_random_nests () =
  let reached = Hashtbl.create 16 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 22 |])
    (prop_compiled_matches_interpreted reached);
  let floor = 10 in
  List.iter
    (fun kernel ->
      let n = Option.value ~default:0 (Hashtbl.find_opt reached kernel) in
      if n < floor then
        Alcotest.failf "random nests reached the %s kernel %d times (floor %d)"
          kernel n floor)
    [ "copy_strided"; "relu"; "acc_add"; "acc_max"; "fma"; "i8_encode";
      "i8_copy"; "i8_fill"; "i8_max" ]

(* Integer expressions compile from their linear normal form. Five
   variables make sums of more than three variable terms common, so
   the general branch runs too. The f32 store rounds large values, so
   the reference is rounded through float32 the same way. *)
let prop_compiled_index_matches_reference =
  let vars = [ "a"; "b"; "c"; "d"; "e" ] in
  QCheck.Test.make ~count:1000 ~name:"compiled index = reference evaluator"
    (QCheck.make ~print:Test_util.linear_print
       (Test_util.linear_case_gen ~vars ~coeff:40))
    (fun (e, env) ->
      let pool = Buffer_pool.create () in
      let acc = Buffer_pool.alloc pool "acc" (Shape.create [ 1 ]) in
      let c =
        Ir_compile.compile ~lookup:(Buffer_pool.lookup pool) ~free_vars:vars
          [ store "acc" [ i 0 ] (Float_of_int e) ]
      in
      Ir_compile.run c ~bindings:env ();
      let expected =
        Int32.float_of_bits
          (Int32.bits_of_float (float_of_int (Test_util.eval_iexpr env e)))
      in
      Float.equal (Tensor.get1 acc 0) expected)

let test_free_vars () =
  let stmts = [ store "acc" [ v "n" ] (f 7.0) ] in
  let env = make_env 5 in
  let compiled =
    Ir_compile.compile ~lookup:(Buffer_pool.lookup env) ~free_vars:[ "n" ] stmts
  in
  Ir_compile.run compiled ~bindings:[ ("n", 2) ] ();
  Alcotest.(check (float 0.0)) "bound var" 7.0
    (Tensor.get1 (Buffer_pool.lookup env "acc") 2)

(* Whole programs: each direction of every stock model (bench scale,
   batch 1-4, default passes, f32, one domain) runs from one snapshot
   twice, compiled and through Ir_eval, and every buffer must match bit
   for bit. The backward starts from the compiled forward's state.
   Compiled GEMMs call Blas.gemm and Ir_eval calls Blas.gemm_naive, so
   this pins the two to one summation rule on real operands, including
   the gradients ReLU and max-pool leave mostly zero. *)
let test_stock_directions () =
  List.iter
    (fun (name, specf) ->
      let spec = specf () in
      let config =
        Config.with_flags ~num_domains:1 ~precision:`F32 Config.default
      in
      let prog = Pipeline.compile ~seed:42 config spec.Models.net in
      let exec =
        Executor.prepare
          ~opts:(Executor.Run_opts.with_domains 1 Executor.Run_opts.default)
          prog
      in
      let pool = prog.Program.buffers in
      let names = Buffer_pool.names pool in
      let image () =
        List.map (fun b -> (b, Tensor.copy (Buffer_pool.lookup pool b))) names
      in
      let restore img =
        List.iter (fun (b, t) -> Tensor.blit ~src:t ~dst:(Buffer_pool.lookup pool b)) img
      in
      Tensor.fill_uniform (Rng.create 13)
        (Buffer_pool.lookup pool (spec.Models.data_ens ^ ".value"))
        ~lo:(-1.0) ~hi:1.0;
      let labels = Buffer_pool.lookup pool spec.Models.label_buf in
      for b = 0 to Tensor.numel labels - 1 do
        Tensor.set1 labels b (float_of_int (b mod 3))
      done;
      let direction what run sections =
        let snap = image () in
        run exec;
        let compiled = image () in
        restore snap;
        List.iter
          (fun (s : Program.section) ->
            Ir_eval.run ~lookup:(Buffer_pool.lookup pool)
              ~store_of:(Buffer_pool.store pool) s.Program.stmts)
          sections;
        let differ =
          List.filter_map
            (fun (b, t) ->
              let x = Tensor.to_array t
              and y = Tensor.to_array (Buffer_pool.lookup pool b) in
              let rec first k =
                if k = Array.length x then None
                else if Int64.equal (Int64.bits_of_float x.(k)) (Int64.bits_of_float y.(k))
                then first (k + 1)
                else Some (Printf.sprintf "%s[%d]: compiled %h, Ir_eval %h" b k x.(k) y.(k))
              in
              first 0)
            compiled
        in
        restore compiled;
        if differ <> [] then
          Alcotest.failf "%s %s: %d buffers differ, e.g. %s" name what
            (List.length differ) (List.hd differ)
      in
      direction "forward" Executor.forward prog.Program.forward;
      direction "backward" Executor.backward prog.Program.backward)
    Test_domains.stock_models

let suite =
  [
    Alcotest.test_case "copy kernel" `Quick test_copy_kernel;
    Alcotest.test_case "relu kernel" `Quick test_relu_kernel;
    Alcotest.test_case "dot kernel" `Quick test_dot_kernel;
    Alcotest.test_case "maxacc strided" `Quick test_maxacc_strided;
    Alcotest.test_case "select guard" `Quick test_select_guard;
    Alcotest.test_case "if stmt" `Quick test_if_stmt;
    Alcotest.test_case "gemm stmt" `Quick test_gemm_stmt;
    Alcotest.test_case "gemm span checked" `Quick test_gemm_span_checked;
    Alcotest.test_case "memset" `Quick test_memset;
    Alcotest.test_case "dynamic bounds" `Quick test_dynamic_bounds;
    Alcotest.test_case "float_of_int" `Quick test_float_of_int;
    Alcotest.test_case "free vars" `Quick test_free_vars;
    Alcotest.test_case "stock models: compiled = Ir_eval" `Slow test_stock_directions;
    Alcotest.test_case "compiled = interpreted on random nests" `Quick
      test_random_nests;
    QCheck_alcotest.to_alcotest prop_compiled_index_matches_reference;
  ]
