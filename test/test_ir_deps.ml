(* Unit tests for the static dependence analyzer (Ir_deps). Each case
   builds a small loop nest by hand and pins the per-buffer verdict;
   the stock-model cases at the end pin that every parallel loop the
   compiler emits is proven legal. *)

open Ir

let v = var
let i = int_

let shapes tbl name = List.assoc_opt name tbl

let verdict_of ?env ~shape_of l buf =
  match l with
  | For l -> (
      let vs = Ir_deps.analyze_loop ?env ~shape_of l in
      match List.find_opt (fun bv -> bv.Ir_deps.bv_buf = buf) vs with
      | Some bv -> bv.Ir_deps.bv_verdict
      | None -> Alcotest.failf "buffer %s not in report" buf)
  | _ -> assert false

let check_verdict name ?env ?(shape_of = fun _ -> None) l buf expect =
  Alcotest.(check string)
    name expect
    (Ir_deps.verdict_to_string (verdict_of ?env ~shape_of l buf))

let is_conflict = function Ir_deps.Conflicting _ -> true | _ -> false

(* --- direct store patterns ------------------------------------- *)

let test_strided_store () =
  (* dst[i] = src[i]: distinct iterations write distinct cells. *)
  let l = loop ~parallel:true "i" (i 0) (i 8) [ store "dst" [ v "i" ] (load "src" [ v "i" ]) ] in
  check_verdict "strided write" l "dst" "independent";
  check_verdict "read-only src" l "src" "independent"

let test_same_cell_store () =
  (* dst[0] = i: every iteration writes cell 0 — race, with witness. *)
  let l = loop ~parallel:true "i" (i 0) (i 8) [ store "dst" [ i 0 ] (f 1.0) ] in
  match verdict_of ~shape_of:(fun _ -> None) l "dst" with
  | Ir_deps.Conflicting w ->
      Alcotest.(check string) "buf" "dst" w.Ir_deps.wit_buf;
      Alcotest.(check bool) "distinct iters" true (w.Ir_deps.wit_iter_a <> w.Ir_deps.wit_iter_b);
      Alcotest.(check (list int)) "index" [ 0 ] w.Ir_deps.wit_index
  | other ->
      Alcotest.failf "expected conflict, got %s" (Ir_deps.verdict_to_string other)

let test_cross_iteration_read () =
  (* dst[i] = dst[i+1]: iteration i reads what i+1 writes. *)
  let l =
    loop ~parallel:true "i" (i 0) (i 8)
      [ store "dst" [ v "i" ] (load "dst" [ Iadd (v "i", i 1) ]) ]
  in
  Alcotest.(check bool)
    "conflict" true
    (is_conflict (verdict_of ~shape_of:(fun _ -> None) l "dst"))

let test_scaled_store () =
  (* dst[2*i] with stride 2: bands [2i, 2i] vs [2i+2k, 2i+2k]. *)
  let l =
    loop ~parallel:true "i" (i 0) (i 8)
      [ store "dst" [ Imul (i 2, v "i") ] (f 0.0) ]
  in
  check_verdict "stride-2 write" l "dst" "independent"

(* --- reductions ------------------------------------------------- *)

let test_sum_reduction () =
  (* g[0] += src[i]: associative accumulate, never otherwise read. *)
  let l =
    loop ~parallel:true "i" (i 0) (i 8) [ accum "g" [ i 0 ] (load "src" [ v "i" ]) ]
  in
  check_verdict "sum reduction" l "g" "reduction(+)";
  check_verdict "src read" l "src" "independent"

let test_max_reduction () =
  let l =
    loop ~parallel:true "i" (i 0) (i 8)
      [ accum_max "m" [ i 0 ] (load "src" [ v "i" ]) ]
  in
  check_verdict "max reduction" l "m" "reduction(max)"

let test_mixed_ops_not_reduction () =
  (* Mixing += and max= on one cell is not a single reduction. *)
  let l =
    loop ~parallel:true "i" (i 0) (i 8)
      [ accum "g" [ i 0 ] (f 1.0); accum_max "g" [ i 0 ] (f 2.0) ]
  in
  Alcotest.(check bool)
    "not a reduction" true
    (match verdict_of ~shape_of:(fun _ -> None) l "g" with
    | Ir_deps.Reduction _ | Ir_deps.Independent -> false
    | _ -> true)

let test_strided_accum_independent () =
  (* g[i] += x: accumulate, but cells are disjoint anyway — the
     stronger Independent verdict wins. *)
  let l = loop ~parallel:true "i" (i 0) (i 8) [ accum "g" [ v "i" ] (f 1.0) ] in
  check_verdict "strided accum" l "g" "independent"

let test_halo_accum_reduction () =
  (* Overlapping windows g[i..i+4] += x: not disjoint, but all
     updates are one associative op — Reduction. *)
  let l =
    loop ~parallel:true "i" (i 0) (i 8)
      [
        loop "w" (v "i") (Iadd (v "i", i 5))
          [ accum "g" [ v "w" ] (f 1.0) ];
      ]
  in
  check_verdict "halo accum" l "g" "reduction(+)"

(* --- inner loops and tiling ------------------------------------ *)

let test_tiled_clamped_store () =
  (* The §5.4.2 tile shape: y in [t*4, min(16, (t+1)*4)). Bands of
     distinct t values are disjoint only because Ir_bounds distributes
     the min over the subtraction. *)
  let lo_y = Imul (v "t", i 4) in
  let hi_y = Imin (i 16, Imul (Iadd (v "t", i 1), i 4)) in
  let l =
    loop ~parallel:true "t" (i 0) (i 4)
      [ loop "y" lo_y hi_y [ store "dst" [ v "y" ] (f 0.0) ] ]
  in
  check_verdict "tiled clamped write" l "dst" "independent"

let test_inner_offset_overlap () =
  (* dst[i + w] for w in [0, 5): windows of adjacent i overlap, and
     plain stores do not commute. *)
  let l =
    loop ~parallel:true "i" (i 0) (i 8)
      [
        loop "w" (i 0) (i 5)
          [ store "dst" [ Iadd (v "i", v "w") ] (f 0.0) ];
      ]
  in
  Alcotest.(check bool)
    "not independent" true
    (match verdict_of ~shape_of:(fun _ -> None) l "dst" with
    | Ir_deps.Independent | Ir_deps.Reduction _ -> false
    | _ -> true)

let test_row_major_inner () =
  (* dst[i][c] over a full inner extent: rows are disjoint. *)
  let shape_of = shapes [ ("dst", [| 8; 16 |]) ] in
  let l =
    loop ~parallel:true "i" (i 0) (i 8)
      [ loop "c" (i 0) (i 16) [ store "dst" [ v "i"; v "c" ] (f 0.0) ] ]
  in
  check_verdict "row-major rows" ~shape_of l "dst" "independent"

(* --- memset / gemm / extern ------------------------------------ *)

let test_memset_conflict () =
  let shape_of = shapes [ ("dst", [| 8 |]) ] in
  let l = loop ~parallel:true "i" (i 0) (i 8) [ Memset { buf = "dst"; value = 0.0 } ] in
  Alcotest.(check bool)
    "memset races" true
    (is_conflict (verdict_of ~shape_of l "dst"))

let gemm ?(beta = 0.0) ~c ~off_c () =
  Gemm
    {
      transa = false;
      transb = false;
      m = i 4;
      n = i 4;
      k = i 4;
      a = "A";
      off_a = i 0;
      b = "B";
      off_b = i 0;
      c;
      off_c;
      alpha = 1.0;
      beta;
      gemm_tile = None;
    }

let test_gemm_strided_output () =
  (* C blocks at i*16 with extent m*n = 16: disjoint per iteration. *)
  let l =
    loop ~parallel:true "i" (i 0) (i 8)
      [ gemm ~c:"C" ~off_c:(Imul (v "i", i 16)) () ]
  in
  check_verdict "gemm strided C" l "C" "independent";
  check_verdict "gemm read A" l "A" "independent"

let test_gemm_same_output () =
  (* beta = 0 overwrite of one block from every iteration: race. *)
  let l = loop ~parallel:true "i" (i 0) (i 8) [ gemm ~c:"C" ~off_c:(i 0) () ] in
  Alcotest.(check bool)
    "gemm overwrite races" true
    (is_conflict (verdict_of ~shape_of:(fun _ -> None) l "C"))

let test_gemm_beta_accumulate () =
  (* beta = 1 accumulating GEMM is a += reduction over the block. *)
  let l =
    loop ~parallel:true "i" (i 0) (i 8) [ gemm ~beta:1.0 ~c:"C" ~off_c:(i 0) () ]
  in
  check_verdict "gemm beta=1" l "C" "reduction(+)"

let test_extern_batch_contract () =
  let ext item_var =
    Extern
      {
        name = "softmax";
        reads = [ "x" ];
        writes = [ "y" ];
        item_var;
        run = (fun ~lookup:_ ~item:_ -> ());
      }
  in
  let mk item_var = loop ~parallel:true "i" (i 0) (i 8) [ ext item_var ] in
  check_verdict "extern per-item write" (mk (Some "i")) "y" "independent";
  Alcotest.(check bool)
    "extern without contract" true
    (match verdict_of ~shape_of:(fun _ -> None) (mk None) "y" with
    | Ir_deps.Unknown _ -> true
    | _ -> false)

(* --- guards, outer vars, trips --------------------------------- *)

let test_guarded_no_witness () =
  (* A guarded write to one cell may still race, but we must not
     fabricate a concrete witness for iterations that may not run. *)
  let l =
    loop ~parallel:true "i" (i 0) (i 8)
      [ If (Icmp (Ceq, v "i", i 3), [ store "dst" [ i 0 ] (f 1.0) ], []) ]
  in
  match verdict_of ~shape_of:(fun _ -> None) l "dst" with
  | Ir_deps.Conflicting w ->
      Alcotest.failf "claimed witness %s for guarded access" (Ir_deps.witness_to_string w)
  | Ir_deps.Independent | Ir_deps.Reduction _ ->
      Alcotest.fail "guarded same-cell store declared safe"
  | Ir_deps.Unknown _ -> ()

let test_single_iteration () =
  (* Trip count <= 1: no cross-iteration pair exists. *)
  let l = loop ~parallel:true "i" (i 0) (i 1) [ store "dst" [ i 0 ] (f 1.0) ] in
  check_verdict "single trip" l "dst" "independent"

let test_outer_var_offset () =
  (* dst[j] under parallel i, j an outer loop var: same cell every
     iteration — racy, but no concrete witness (j is symbolic). *)
  let env = Ir_bounds.bind_range "j" ~lo:(i 0) ~hi:(i 4) Ir_bounds.empty_env in
  let l = loop ~parallel:true "i" (i 0) (i 8) [ store "dst" [ v "j" ] (f 1.0) ] in
  Alcotest.(check bool)
    "outer-var cell not safe" true
    (match verdict_of ~env ~shape_of:(fun _ -> None) l "dst" with
    | Ir_deps.Independent | Ir_deps.Reduction _ -> false
    | _ -> true)

let test_outer_block_stride () =
  (* dst[j*8 + i]: the parallel var strides within a block chosen by
     an outer variable — still independent across i. *)
  let env = Ir_bounds.bind_range "j" ~lo:(i 0) ~hi:(i 4) Ir_bounds.empty_env in
  let l =
    loop ~parallel:true "i" (i 0) (i 8)
      [ store "dst" [ Iadd (Imul (v "j", i 8), v "i") ] (f 1.0) ]
  in
  check_verdict "outer block + stride" ~env l "dst" "independent"

(* --- analyze_stmts and the report table ------------------------ *)

let test_analyze_stmts_nested () =
  let stmts =
    [
      loop ~parallel:true "n" (i 0) (i 4)
        [
          loop ~parallel:true "t" (i 0) (i 2)
            [ store "dst" [ Iadd (Imul (v "n", i 2), v "t") ] (f 0.0) ];
        ];
    ]
  in
  let reports = Ir_deps.analyze_stmts ~shape_of:(fun _ -> None) stmts in
  Alcotest.(check (list string))
    "both parallel loops reported" [ "n"; "t" ]
    (List.map (fun r -> r.Ir_deps.lr_var) reports);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        ("legal " ^ r.Ir_deps.lr_var)
        true
        (Ir_deps.legal r.Ir_deps.lr_verdicts))
    reports

let test_report_table () =
  let l = loop ~parallel:true "i" (i 0) (i 8) [ store "dst" [ i 0 ] (f 1.0) ] in
  let reports =
    match l with
    | For _ -> Ir_deps.analyze_stmts ~shape_of:(fun _ -> None) [ l ]
    | _ -> assert false
  in
  let table = Ir_deps.report_table [ ("fc1 forward", reports) ] in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go k = k + nn <= nh && (String.sub hay k nn = needle || go (k + 1)) in
    go 0
  in
  Alcotest.(check bool) "section named" true (contains table "fc1 forward");
  Alcotest.(check bool) "conflict shown" true (contains table "CONFLICT")

(* --- stock models: every emitted parallel loop proves legal ----- *)

let check_model spec =
  let prog = Pipeline.compile ~seed:3 Config.default spec.Models.net in
  let reports = Program.races prog in
  Alcotest.(check bool) "has parallel loops" true (reports <> []);
  List.iter
    (fun (section, loops) ->
      List.iter
        (fun r ->
          List.iter
            (fun bv ->
              match bv.Ir_deps.bv_verdict with
              | Ir_deps.Conflicting w ->
                  Alcotest.failf "%s %s@%s: %s" section bv.Ir_deps.bv_buf
                    r.Ir_deps.lr_var
                    (Ir_deps.witness_to_string w)
              | _ -> ())
            r.Ir_deps.lr_verdicts)
        loops)
    reports

let test_stock_models () =
  check_model (Models.mlp ~batch:4 ~n_inputs:16 ~hidden:[ 8 ] ~n_classes:4);
  check_model (Models.lenet ~batch:2 ~image:16 ~n_classes:4 ())

(* --- dynamic race oracle --------------------------------------- *)

(* Fuzz the analyzer against ground truth: generate random affine loop
   nests, run each iteration of the parallel loop through Ir_eval
   collecting (buffer, flat index) footprints, and check that
   - Independent verdicts have no cross-iteration write/access overlap
     (a violated Independent would be a miscompile: the partitioner
      runs those writes concurrently), and
   - Conflicting witnesses name two real iterations that both touch
     the witnessed element, with at least one writing it.
   Reduction/Unknown verdicts carry no disprovable claim here (the
   compiler handles both with replay or a sequential fallback). *)
module ISet = Set.Make (Int)

let fuzz_race_oracle () =
  let rng = Random.State.make [| 0x1a77e; 9 |] in
  let ri n = Random.State.int rng n in
  let checked = ref 0 in
  for case = 1 to 300 do
    let n = 2 + ri 5 in
    let inner = ri 2 = 0 in
    let m = 2 + ri 3 in
    (* Track the largest index each buffer can see so the oracle can
       allocate big enough tensors (coefficients are non-negative, so
       the max is at i = n-1, j = m-1). *)
    let max_idx : (string, int) Hashtbl.t = Hashtbl.create 8 in
    let note buf hi =
      match Hashtbl.find_opt max_idx buf with
      | Some cur when cur >= hi -> ()
      | _ -> Hashtbl.replace max_idx buf hi
    in
    let idx ~with_j buf =
      let a = ri 3 and c = ri 4 in
      let b = if with_j then ri 3 else 0 in
      note buf ((a * (n - 1)) + (b * (m - 1)) + c);
      let base = Iadd (Imul (i a, v "i"), i c) in
      if with_j then Iadd (base, Imul (i b, v "j")) else base
    in
    let value ~with_j =
      match ri 4 with
      | 0 -> f (float_of_int (ri 10))
      | 1 | 2 -> load "src" [ idx ~with_j "src" ]
      | _ ->
          (* Read a written buffer: makes flow/anti dependences likely. *)
          let buf = if ri 2 = 0 then "d0" else "d1" in
          load buf [ idx ~with_j buf ]
    in
    let stmt ~with_j () =
      let buf = if ri 2 = 0 then "d0" else "d1" in
      let target = idx ~with_j buf in
      match ri 3 with
      | 0 -> store buf [ target ] (value ~with_j)
      | 1 -> accum buf [ target ] (value ~with_j)
      | _ -> accum_max buf [ target ] (value ~with_j)
    in
    let body =
      let direct = List.init (1 + ri 2) (fun _ -> stmt ~with_j:false ()) in
      if inner then
        direct @ [ loop "j" (i 0) (i m) (List.init (1 + ri 2) (fun _ -> stmt ~with_j:true ())) ]
      else direct
    in
    let l =
      match loop ~parallel:true "i" (i 0) (i n) body with
      | For l -> l
      | _ -> assert false
    in
    (* The generator only indexes `value (load buf)` buffers it also
       noted, but a case may never touch src or one of d0/d1. *)
    List.iter (fun b -> note b 0) [ "src"; "d0"; "d1" ];
    let size buf = Hashtbl.find max_idx buf + 1 in
    let shape_of buf = Some [| size buf |] in
    let verdicts = Ir_deps.analyze_loop ~shape_of l in
    (* Dynamic footprints: run each iteration of the parallel loop in
       isolation through the reference interpreter. *)
    let pool = Buffer_pool.create () in
    List.iter
      (fun b -> ignore (Buffer_pool.alloc pool b (Shape.create [ size b ])))
      [ "src"; "d0"; "d1" ];
    let writes = Array.make n ISet.empty and touches = Array.make n ISet.empty in
    let key buf idx = (Hashtbl.hash buf * 65536) + idx in
    for it = 0 to n - 1 do
      let w = ref ISet.empty and a = ref ISet.empty in
      Ir_eval.run
        ~lookup:(Buffer_pool.lookup pool)
        ~bindings:[ ("i", it) ]
        ~trace:(fun buf idx -> a := ISet.add (key buf idx) !a)
        ~trace_store:(fun buf idx _ ->
          w := ISet.add (key buf idx) !w;
          a := ISet.add (key buf idx) !a)
        l.body;
      writes.(it) <- !w;
      touches.(it) <- !a
    done;
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          Alcotest.failf "case %d: %s\n%s" case msg
            (Ir_printer.stmts_to_string [ For l ]))
        fmt
    in
    List.iter
      (fun (bv : Ir_deps.buffer_verdict) ->
        let buf = bv.Ir_deps.bv_buf in
        match bv.Ir_deps.bv_verdict with
        | Ir_deps.Independent ->
            incr checked;
            let tag = key buf 0 / 65536 in
            for p = 0 to n - 1 do
              for q = 0 to n - 1 do
                if
                  p <> q
                  && ISet.exists
                       (fun k -> k / 65536 = tag && ISet.mem k touches.(q))
                       writes.(p)
                then
                  fail "buffer %s judged independent but iterations %d/%d overlap"
                    buf p q
              done
            done
        | Ir_deps.Conflicting w ->
            incr checked;
            let a = w.Ir_deps.wit_iter_a and b = w.Ir_deps.wit_iter_b in
            if a = b || a < 0 || b < 0 || a >= n || b >= n then
              fail "witness iterations %d/%d invalid for %s" a b buf;
            let flat =
              match w.Ir_deps.wit_index with
              | [ x ] -> x
              | idx ->
                  (* Row-major flatten for multi-dim witnesses; the
                     fuzzer only makes 1-D buffers, but be safe. *)
                  List.fold_left (fun acc x -> (acc * size buf) + x) 0 idx
            in
            let k = key w.Ir_deps.wit_buf flat in
            if not (ISet.mem k touches.(a) && ISet.mem k touches.(b)) then
              fail "witness %s not touched by both iterations %d/%d"
                (Ir_deps.witness_to_string w) a b;
            if not (ISet.mem k writes.(a) || ISet.mem k writes.(b)) then
              fail "witness %s never written" (Ir_deps.witness_to_string w)
        | Ir_deps.Reduction _ | Ir_deps.Unknown _ -> ())
      verdicts
  done;
  Alcotest.(check bool)
    "oracle exercised both decisive verdicts" true (!checked > 100)

let suite =
  [
    Alcotest.test_case "strided store" `Quick test_strided_store;
    Alcotest.test_case "same-cell store" `Quick test_same_cell_store;
    Alcotest.test_case "cross-iteration read" `Quick test_cross_iteration_read;
    Alcotest.test_case "scaled store" `Quick test_scaled_store;
    Alcotest.test_case "sum reduction" `Quick test_sum_reduction;
    Alcotest.test_case "max reduction" `Quick test_max_reduction;
    Alcotest.test_case "mixed ops" `Quick test_mixed_ops_not_reduction;
    Alcotest.test_case "strided accum" `Quick test_strided_accum_independent;
    Alcotest.test_case "halo accum" `Quick test_halo_accum_reduction;
    Alcotest.test_case "tiled clamp" `Quick test_tiled_clamped_store;
    Alcotest.test_case "inner overlap" `Quick test_inner_offset_overlap;
    Alcotest.test_case "row-major inner" `Quick test_row_major_inner;
    Alcotest.test_case "memset" `Quick test_memset_conflict;
    Alcotest.test_case "gemm strided" `Quick test_gemm_strided_output;
    Alcotest.test_case "gemm overwrite" `Quick test_gemm_same_output;
    Alcotest.test_case "gemm beta=1" `Quick test_gemm_beta_accumulate;
    Alcotest.test_case "extern contract" `Quick test_extern_batch_contract;
    Alcotest.test_case "guarded access" `Quick test_guarded_no_witness;
    Alcotest.test_case "single iteration" `Quick test_single_iteration;
    Alcotest.test_case "outer var cell" `Quick test_outer_var_offset;
    Alcotest.test_case "outer block stride" `Quick test_outer_block_stride;
    Alcotest.test_case "analyze_stmts" `Quick test_analyze_stmts_nested;
    Alcotest.test_case "report table" `Quick test_report_table;
    Alcotest.test_case "stock models" `Quick test_stock_models;
    Alcotest.test_case "dynamic race oracle (300 nests)" `Quick
      fuzz_race_oracle;
  ]
