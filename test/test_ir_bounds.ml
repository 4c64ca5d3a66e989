(* The interval bounds / safety analyzer: interval arithmetic and the
   three refinements (linear cancellation, guard facts, symbolic loop
   bounds), verdicts on hand-written programs, the flow checks, the
   guarded code path in Ir_compile, a dynamic-oracle fuzz test (no
   false "proven" verdicts against observed indices), and the
   end-to-end guarantees on stock compiled pipelines — including that a
   deliberately broken pass is caught as a runtime guard, not memory
   corruption. *)

open Ir

let v = var
let i = int_

(* ---- ranges ------------------------------------------------------- *)

let check_range env e lo hi =
  let r = Ir_bounds.range env e in
  Alcotest.(check string)
    (Ir_printer.iexpr_to_string e)
    (Ir_bounds.interval_to_string (Ir_bounds.interval lo hi))
    (Ir_bounds.interval_to_string r)

let test_interval_arith () =
  let env = Ir_bounds.(bind "x" (interval 0 9) empty_env) in
  check_range env (i 7) 7 7;
  check_range env (v "x") 0 9;
  check_range env (Iadd (Imul (v "x", i 2), i 1)) 1 19;
  check_range env (Isub (i 3, v "x")) (-6) 3;
  check_range env (Imul (v "x", v "x")) 0 81;
  check_range env (Idiv (v "x", i 2)) 0 4;
  check_range env (Imod (v "x", i 4)) 0 3;
  check_range env (Imin (v "x", i 5)) 0 5;
  check_range env (Imax (v "x", i 5)) 5 9

let test_linear_cancellation () =
  (* The tiled-GEMM row count: ((t+1)*8 - t*8) * 4 must be exactly 32
     even with t completely unconstrained. *)
  let e =
    Imul
      ( Isub (Imul (Iadd (v "t", i 1), i 8), Imul (v "t", i 8)),
        i 4 )
  in
  check_range Ir_bounds.empty_env e 32 32;
  check_range Ir_bounds.empty_env (Isub (v "u", v "u")) 0 0

let test_guard_facts () =
  let env = Ir_bounds.(bind "x" (interval (-3) 12) empty_env) in
  let c = Cand (Icmp (Cge, v "x", i 0), Icmp (Clt, v "x", i 8)) in
  check_range (Ir_bounds.assume c env) (v "x") 0 7;
  (* Negation: ¬(x < 8 ∨ x < 0) gives x ≥ 8. *)
  let d = Cor (Icmp (Clt, v "x", i 8), Icmp (Clt, v "x", i 0)) in
  check_range (Ir_bounds.assume_not d env) (v "x") 8 12

let test_symbolic_loop_bounds () =
  (* The padded-convolution window: under
       w ∈ [0, 3)  and  d ∈ [max(0, 1−w), min(6, 7−w))
     the source coordinate d + w − 1 is provably within [0, 6). *)
  let env =
    Ir_bounds.empty_env
    |> Ir_bounds.bind_range "w" ~lo:(i 0) ~hi:(i 3)
    |> Ir_bounds.bind_range "d"
         ~lo:(Imax (i 0, Isub (i 1, v "w")))
         ~hi:(Imin (i 6, Isub (i 7, v "w")))
  in
  check_range env (Iadd (Isub (v "d", i 1), v "w")) 0 5

let test_strided_window_bounds () =
  (* The alexnet conv1 clamp (kernel 5, stride 2, pad 1, source 32):
     w ∈ [0, 5), d ∈ [max(0, (2−w)/2), min(15, max(0, (34−w)/2)))
     proves 2d + w − 1 ∈ [0, 32) via the truncating-division relaxation
     b·(x/b) ∈ [x−b+1, x+b−1]. *)
  let env =
    Ir_bounds.empty_env
    |> Ir_bounds.bind_range "w" ~lo:(i 0) ~hi:(i 5)
    |> Ir_bounds.bind_range "d"
         ~lo:(Imax (i 0, Idiv (Isub (i 2, v "w"), i 2)))
         ~hi:(Imin (i 15, Imax (i 0, Idiv (Isub (i 34, v "w"), i 2))))
  in
  let coord = Iadd (Isub (Imul (i 2, v "d"), i 1), v "w") in
  Alcotest.(check bool) "strided window proven" true
    (Ir_bounds.access_proven env ~shape:[| 32 |] [ coord ])

(* ---- verdicts on small programs ----------------------------------- *)

let region stmts = [ ("r", [], stmts) ]

let shapes assoc buf =
  Option.map Array.of_list (List.assoc_opt buf assoc)

let analyze ?flow assoc stmts =
  Ir_bounds.analyze ~shape_of:(shapes assoc) ?flow (region stmts)

let kinds rep =
  List.map (fun (f : Ir_bounds.finding) -> f.Ir_bounds.kind)
    (Ir_bounds.all_findings rep)

let test_verdicts () =
  let sh = [ ("dst", [ 4 ]); ("src", [ 4 ]) ] in
  (* Fully in bounds. *)
  let rep =
    analyze sh [ loop "x" (i 0) (i 4) [ store "dst" [ v "x" ] (load "src" [ v "x" ]) ] ]
  in
  Alcotest.(check int) "proven" 2 rep.Ir_bounds.totals.Ir_bounds.proven;
  Alcotest.(check int) "guarded" 0 rep.Ir_bounds.totals.Ir_bounds.guarded;
  (* Possibly out of bounds: guarded, non-fatal. *)
  let rep =
    analyze sh [ loop "x" (i 0) (i 5) [ store "dst" [ v "x" ] (f 0.0) ] ]
  in
  Alcotest.(check int) "guarded" 1 rep.Ir_bounds.totals.Ir_bounds.guarded;
  Alcotest.(check bool) "not fatal" true (Ir_bounds.fatal_findings rep = []);
  (* Definitely out of bounds: flagged, fatal. *)
  let rep = analyze sh [ store "dst" [ i 10 ] (f 0.0) ] in
  Alcotest.(check int) "flagged" 1 rep.Ir_bounds.totals.Ir_bounds.flagged;
  Alcotest.(check bool) "fatal" true (Ir_bounds.fatal_findings rep <> []);
  (* A guard makes the same access provable. *)
  let guarded =
    loop "x" (i 0) (i 5)
      [
        If
          ( Icmp (Clt, v "x", i 4),
            [ store "dst" [ v "x" ] (f 0.0) ],
            [] );
      ]
  in
  let rep = analyze sh [ guarded ] in
  Alcotest.(check int) "guard proven" 1 rep.Ir_bounds.totals.Ir_bounds.proven;
  Alcotest.(check int) "guard guarded" 0 rep.Ir_bounds.totals.Ir_bounds.guarded

let test_div_by_zero () =
  let sh = [ ("dst", [ 8 ]); ("src", [ 8 ]) ] in
  let rep =
    analyze sh
      [
        loop "x" (i 0) (i 4)
          [ store "dst" [ Idiv (v "x", v "x") ] (f 1.0) ]
      ]
  in
  Alcotest.(check bool) "flags div" true
    (List.mem Ir_bounds.Div_by_zero (kinds rep));
  Alcotest.(check bool) "lint only" true (Ir_bounds.fatal_findings rep = []);
  let rep =
    analyze sh
      [ loop "x" (i 1) (i 4) [ store "dst" [ Idiv (i 4, v "x") ] (f 1.0) ] ]
  in
  Alcotest.(check bool) "no false div flag" false
    (List.mem Ir_bounds.Div_by_zero (kinds rep))

let test_flow_checks () =
  let sh = [ ("a", [ 4 ]); ("b", [ 4 ]); ("c", [ 4 ]) ] in
  let flow assume_init live_out =
    { Ir_bounds.physical = Fun.id; assume_init; live_out }
  in
  let stmts =
    [
      loop "x" (i 0) (i 4)
        [
          store "b" [ v "x" ] (load "a" [ v "x" ]);
          store "c" [ v "x" ] (f 0.0);
        ];
    ]
  in
  (* a read but never written: use-before-init unless assumed. *)
  let rep = analyze ~flow:(flow [] [ "b"; "c" ]) sh stmts in
  Alcotest.(check bool) "use-before-init" true
    (List.mem Ir_bounds.Use_before_init (kinds rep));
  let rep = analyze ~flow:(flow [ "a" ] [ "b"; "c" ]) sh stmts in
  Alcotest.(check bool) "assumed init" false
    (List.mem Ir_bounds.Use_before_init (kinds rep));
  (* c written, never read, not live-out: dead store. *)
  let rep = analyze ~flow:(flow [ "a" ] [ "b" ]) sh stmts in
  Alcotest.(check bool) "dead store" true
    (List.mem Ir_bounds.Dead_store (kinds rep))

(* ---- the guarded code path ---------------------------------------- *)

let make_pool assoc =
  let pool = Buffer_pool.create () in
  List.iter
    (fun (name, shape) -> ignore (Buffer_pool.alloc pool name (Shape.create shape)))
    assoc;
  pool

let test_guarded_compile_raises () =
  let pool = make_pool [ ("dst", [ 4 ]) ] in
  let compiled =
    Ir_compile.compile ~lookup:(Buffer_pool.lookup pool) ~free_vars:[ "k" ]
      [ store "dst" [ v "k" ] (f 1.0) ]
  in
  Ir_compile.run compiled ~bindings:[ ("k", 2) ] ();
  Alcotest.(check (float 0.0)) "in-bounds store lands" 1.0
    (Tensor.get1 (Buffer_pool.lookup pool "dst") 2);
  match Ir_compile.run compiled ~bindings:[ ("k", 99) ] () with
  | () -> Alcotest.fail "expected Invalid_argument on OOB store"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the buffer" true
        (Test_util.contains msg "dst");
      Alcotest.(check bool) "names the index" true
        (Test_util.contains msg "99")

let test_safety_modes_and_kernels () =
  (* A provable copy nest keeps the specialized kernel under the default
     safety; Checked mode forgoes it. *)
  let stmts =
    [
      loop "x" (i 0) (i 4)
        [ store "dst" [ v "x" ] (load "src" [ v "x" ]) ];
    ]
  in
  let specialized safety =
    let pool = make_pool [ ("dst", [ 4 ]); ("src", [ 4 ]) ] in
    let c = Ir_compile.compile ~lookup:(Buffer_pool.lookup pool) ~safety stmts in
    Ir_compile.run c ();
    List.exists
      (fun (k, n) -> k <> "generic" && k <> "guarded" && n > 0)
      (Ir_compile.kernel_stats c)
  in
  Alcotest.(check bool) "proven nest specializes" true
    (specialized Ir_compile.Guard_unproven);
  Alcotest.(check bool) "checked mode does not" false
    (specialized Ir_compile.Checked)

let test_eval_trace_hook () =
  let pool = make_pool [ ("dst", [ 4 ]) ] in
  let seen = ref [] in
  (try
     Ir_eval.run
       ~lookup:(Buffer_pool.lookup pool)
       ~trace:(fun buf raw -> seen := (buf, raw) :: !seen)
       [ loop "x" (i 2) (i 6) [ store "dst" [ v "x" ] (f 1.0) ] ]
   with Invalid_argument _ -> ());
  (* Indices 2, 3 execute; the attempt at 4 is traced before the raise. *)
  Alcotest.(check (list (pair string int)))
    "raw indices traced, OOB attempt included"
    [ ("dst", 2); ("dst", 3); ("dst", 4) ]
    (List.rev !seen)

(* ---- fuzz: no false "proven" against the dynamic oracle ------------ *)

let fuzz_shapes = [ ("fz_dst", [ 5; 6 ]); ("fz_src", [ 5; 6 ]) ]

let gen_nest rng =
  let gi b = Rng.int rng b in
  let gen_idx vars =
    (* Deliberately sometimes out of bounds: scaled/offset variables,
       clamps, divisions. *)
    match gi 5 with
    | 0 -> i (gi 8 - 1)
    | 1 | 2 -> (
        match vars with
        | [] -> i (gi 5)
        | _ ->
            let x = v (List.nth vars (gi (List.length vars))) in
            let scaled = if gi 3 = 0 then Imul (x, i (1 + gi 2)) else x in
            Iadd (scaled, i (gi 5 - 2)))
    | 3 -> (
        match vars with
        | [] -> i 0
        | _ ->
            let x = v (List.nth vars (gi (List.length vars))) in
            Imin (Imax (Iadd (x, i (gi 3 - 1)), i 0), i (4 + gi 2)))
    | _ -> (
        match vars with
        | [] -> i 1
        | _ -> Idiv (v (List.nth vars (gi (List.length vars))), i (1 + gi 3)))
  in
  let rec gen depth vars =
    if depth = 0 then
      let idx () = [ gen_idx vars; gen_idx vars ] in
      let value =
        if gi 2 = 0 then f 1.5 else load "fz_src" (idx ())
      in
      [ (if gi 2 = 0 then store "fz_dst" (idx ()) value
         else accum "fz_dst" (idx ()) value) ]
    else
      let var = Printf.sprintf "v%d" depth in
      let lo = gi 2 in
      let hi = lo + gi 6 in
      [ loop var (i lo) (i hi) (gen (depth - 1) (var :: vars)) ]
  in
  gen (1 + gi 2) []

let test_fuzz_no_false_proven () =
  let cases = ref 0 and proven_cases = ref 0 in
  for seed = 1 to 300 do
    let rng = Rng.create seed in
    let stmts = gen_nest rng in
    let rep = analyze fuzz_shapes stmts in
    let proven =
      rep.Ir_bounds.totals.Ir_bounds.guarded = 0
      && rep.Ir_bounds.totals.Ir_bounds.flagged = 0
    in
    (* Dynamic oracle: raw flattened indices recorded before the
       interpreter's own (per-dimension) bounds check. *)
    let pool = make_pool fuzz_shapes in
    let flat_oob = ref false in
    let numel b = Tensor.numel (Buffer_pool.lookup pool b) in
    let eval_raised =
      match
        Ir_eval.run
          ~lookup:(Buffer_pool.lookup pool)
          ~trace:(fun buf raw ->
            if raw < 0 || raw >= numel buf then flat_oob := true)
          stmts
      with
      | () -> false
      | exception Invalid_argument _ -> true
    in
    incr cases;
    if proven then begin
      incr proven_cases;
      (* The analyzer proves every index component per dimension, so a
         proven nest must run the strict interpreter to completion. *)
      if eval_raised then
        Alcotest.failf "seed %d: analyzer proved a nest the oracle rejects" seed
    end;
    (* The guarded executable checks flattened indices: a flat OOB
       attempt (necessarily the interpreter's first failure, so the
       compiled run reaches the same point) must raise cleanly, and a
       violation-free run must succeed. The interpreter raising on a
       per-dimension violation whose flat index is in range constrains
       neither direction. *)
    let pool2 = make_pool fuzz_shapes in
    let outcome =
      match
        Ir_compile.run
          (Ir_compile.compile ~lookup:(Buffer_pool.lookup pool2) stmts)
          ()
      with
      | () -> `Ok
      | exception Invalid_argument _ -> `Raised
    in
    if !flat_oob && outcome <> `Raised then
      Alcotest.failf "seed %d: flat OOB not caught by the guarded path" seed;
    if (not eval_raised) && outcome <> `Ok then
      Alcotest.failf "seed %d: guarded path raised on a clean nest" seed
  done;
  Alcotest.(check bool) "fuzz exercised both verdicts" true
    (!proven_cases > 0 && !proven_cases < !cases)

(* ---- stock pipelines ---------------------------------------------- *)

let check_program_clean spec =
  let prog = Pipeline.compile ~seed:3 Config.default spec.Models.net in
  let rep =
    Program.analyze
      ~live_out:[ spec.Models.loss_buf; spec.Models.output_ens ^ ".value" ]
      prog
  in
  Alcotest.(check int) "guarded" 0 rep.Ir_bounds.totals.Ir_bounds.guarded;
  Alcotest.(check int) "flagged" 0 rep.Ir_bounds.totals.Ir_bounds.flagged;
  Alcotest.(check bool) "all accesses proven" true
    (rep.Ir_bounds.totals.Ir_bounds.proven > 0);
  Alcotest.(check (list string)) "no findings" []
    (List.map Ir_bounds.finding_to_string (Ir_bounds.all_findings rep))

let test_mlp_fully_proven () =
  check_program_clean
    (Models.mlp ~batch:4 ~n_inputs:64 ~hidden:[ 32 ] ~n_classes:10)

let test_lenet_fully_proven () =
  check_program_clean (Models.lenet ~batch:2 ~image:16 ~n_classes:10 ())

let test_pass_manager_reports_bounds () =
  let spec = Models.mlp ~batch:4 ~n_inputs:16 ~hidden:[ 8 ] ~n_classes:4 in
  let _prog, report =
    Pass_manager.run ~seed:3 ~verify:true Config.default spec.Models.net
  in
  let analyzed =
    List.filter_map
      (fun (o : Pass_manager.outcome) -> o.Pass_manager.bounds)
      report.Pass_manager.outcomes
  in
  Alcotest.(check bool) "post-synthesis passes analyzed" true
    (List.length analyzed >= 2);
  List.iter
    (fun rep ->
      Alcotest.(check (list string)) "no fatal findings under --verify-ir" []
        (List.map Ir_bounds.finding_to_string (Ir_bounds.fatal_findings rep)))
    analyzed

(* ---- a deliberately broken pass is caught, not executed unsafely --- *)

let break_batch_loops (prog : Program.t) =
  let bump (s : Program.section) =
    {
      s with
      Program.stmts =
        Ir.map_stmts
          (fun st ->
            match st with
            | For l when String.equal l.var Synthesis.batch_var ->
                For { l with hi = Iadd (l.hi, i 1) }
            | st -> st)
          s.Program.stmts;
    }
  in
  { prog with Program.forward = List.map bump prog.Program.forward }

let test_broken_pass_caught () =
  let spec = Models.mlp ~batch:4 ~n_inputs:16 ~hidden:[ 8 ] ~n_classes:4 in
  let prog = Pipeline.compile ~seed:3 Config.default spec.Models.net in
  let broken = break_batch_loops prog in
  (* The analyzer demotes the off-by-one accesses to guarded. *)
  let rep = Program.analyze broken in
  Alcotest.(check bool) "off-by-one detected" true
    (rep.Ir_bounds.totals.Ir_bounds.guarded > 0
    || rep.Ir_bounds.totals.Ir_bounds.flagged > 0);
  (* The executor runs it behind guards and raises cleanly instead of
     corrupting memory. *)
  let exec = Executor.prepare broken in
  (match Executor.forward exec with
  | () -> Alcotest.fail "expected Invalid_argument from the broken program"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "diagnostic names out-of-bounds" true
        (Test_util.contains msg "out-of-bounds"))

(* --- Ir_linear properties -------------------------------------- *)

(* The linear normal form promises value-exactness (it only decomposes
   +, − and multiplication by a constant) and round-trip idempotence.
   Pin both over random expressions (see Test_util.linear_case_gen). *)
let linear_case =
  QCheck.make ~print:Test_util.linear_print
    (Test_util.linear_case_gen ~vars:[ "a"; "b"; "c" ] ~coeff:4)

let prop_linear_roundtrip_exact =
  QCheck.Test.make ~count:500 ~name:"Ir_linear round-trip is value-exact"
    linear_case
    (fun (e, env) ->
      Test_util.eval_iexpr env (Ir_linear.to_iexpr (Ir_linear.of_iexpr e))
      = Test_util.eval_iexpr env e)

let prop_linear_idempotent =
  QCheck.Test.make ~count:500 ~name:"Ir_linear normalization is idempotent"
    linear_case
    (fun (e, _) ->
      let nf = Ir_linear.of_iexpr e in
      Ir_linear.equal nf (Ir_linear.of_iexpr (Ir_linear.to_iexpr nf)))

let suite =
  [
    Alcotest.test_case "interval arithmetic" `Quick test_interval_arith;
    Alcotest.test_case "linear cancellation" `Quick test_linear_cancellation;
    Alcotest.test_case "guard facts" `Quick test_guard_facts;
    Alcotest.test_case "symbolic loop bounds" `Quick test_symbolic_loop_bounds;
    Alcotest.test_case "strided window bounds" `Quick test_strided_window_bounds;
    Alcotest.test_case "verdicts" `Quick test_verdicts;
    Alcotest.test_case "div-by-zero lint" `Quick test_div_by_zero;
    Alcotest.test_case "flow checks" `Quick test_flow_checks;
    Alcotest.test_case "guarded compile raises" `Quick test_guarded_compile_raises;
    Alcotest.test_case "safety modes and kernels" `Quick
      test_safety_modes_and_kernels;
    Alcotest.test_case "eval trace hook" `Quick test_eval_trace_hook;
    Alcotest.test_case "fuzz vs dynamic oracle" `Quick test_fuzz_no_false_proven;
    Alcotest.test_case "mlp fully proven" `Quick test_mlp_fully_proven;
    Alcotest.test_case "lenet fully proven" `Quick test_lenet_fully_proven;
    Alcotest.test_case "pass manager bounds reports" `Quick
      test_pass_manager_reports_bounds;
    Alcotest.test_case "broken pass caught" `Quick test_broken_pass_caught;
    QCheck_alcotest.to_alcotest prop_linear_roundtrip_exact;
    QCheck_alcotest.to_alcotest prop_linear_idempotent;
  ]
