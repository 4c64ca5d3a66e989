(* The IR well-formedness verifier against hand-built ill-formed
   fixtures: each broken program is rejected with a diagnostic naming
   the offending section and statement, and the legal constructions the
   compiler emits (reductions under parallel loops, partitioned stores)
   are accepted. *)

open Ir

let shapes = [ ("a", Shape.create [ 4; 8 ]); ("v", Shape.create [ 8 ]) ]
let shape_of name = List.assoc_opt name shapes
let region = "forward/test-section"

let verify ?bound stmts = Ir_verify.verify_stmts ?bound ~shape_of ~region stmts

let mk_for ?(parallel = false) ?tile var lo hi body =
  For { var; lo; hi; body; parallel; tile; vectorize = false }

let reasons errs = List.map (fun (e : Ir_verify.error) -> e.reason) errs

(* String containment without Str (keep test deps minimal). *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_rejected ~what ~mentions errs =
  Alcotest.(check bool) (what ^ ": rejected") true (errs <> []);
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: diagnostic mentions %S" what needle)
        true
        (List.exists (fun r -> contains r needle) (reasons errs)))
    mentions

let test_well_formed () =
  let stmts =
    [
      mk_for "i" (Iconst 0) (Iconst 4)
        [
          mk_for "j" (Iconst 0) (Iconst 8)
            [
              Store
                {
                  buf = "a";
                  idx = [ Ivar "i"; Ivar "j" ];
                  value = Load ("a", [ Ivar "i"; Ivar "j" ]);
                };
            ];
        ];
    ]
  in
  Alcotest.(check int) "no diagnostics" 0 (List.length (verify stmts))

let test_unbound_var () =
  let stmts =
    [ Store { buf = "v"; idx = [ Ivar "i" ]; value = Fconst 1.0 } ]
  in
  check_rejected ~what:"unbound loop variable"
    ~mentions:[ "unbound loop variable"; "i" ]
    (verify stmts);
  (* The same statement is fine when the variable is implicitly bound
     (the per-item batch variable of unit bodies). *)
  Alcotest.(check int) "bound via ~bound" 0
    (List.length (verify ~bound:[ "i" ] stmts))

let test_dangling_buffer () =
  let stmts = [ Memset { buf = "ghost"; value = 0.0 } ] in
  check_rejected ~what:"dangling buffer"
    ~mentions:[ "ghost"; "absent from the buffer plan" ]
    (verify stmts)

let test_wrong_arity () =
  let stmts =
    [
      mk_for "i" (Iconst 0) (Iconst 4)
        [ Store { buf = "a"; idx = [ Ivar "i" ]; value = Fconst 0.0 } ];
    ]
  in
  check_rejected ~what:"wrong index arity"
    ~mentions:[ "arity 1"; "rank 2" ]
    (verify stmts);
  (* Arity of loads is checked too. *)
  let stmts =
    [
      mk_for "i" (Iconst 0) (Iconst 8)
        [
          Store
            {
              buf = "v";
              idx = [ Ivar "i" ];
              value = Load ("a", [ Ivar "i" ]);
            };
        ];
    ]
  in
  check_rejected ~what:"wrong load arity" ~mentions:[ "a"; "rank 2" ]
    (verify stmts)

let test_bogus_parallel () =
  (* Every iteration writes v[3]: a race, not a partition. *)
  let stmts =
    [
      mk_for ~parallel:true "p" (Iconst 0) (Iconst 4)
        [ Store { buf = "v"; idx = [ Iconst 3 ]; value = Fconst 1.0 } ];
    ]
  in
  check_rejected ~what:"racy parallel store"
    ~mentions:[ "same element"; "p" ]
    (verify stmts);
  let stmts =
    [
      mk_for ~parallel:true "p" (Iconst 0) (Iconst 4)
        [ Memset { buf = "v"; value = 0.0 } ];
    ]
  in
  check_rejected ~what:"memset under parallel loop"
    ~mentions:[ "memset"; "parallel loop" ]
    (verify stmts)

let test_parallel_legal () =
  (* Partitioned store: index strides with the parallel variable. *)
  let partitioned =
    [
      mk_for ~parallel:true "p" (Iconst 0) (Iconst 4)
        [
          mk_for "j" (Iconst 0) (Iconst 2)
            [
              Store
                {
                  buf = "a";
                  idx = [ Ivar "p"; Ivar "j" ];
                  value = Fconst 0.0;
                };
            ];
        ];
    ]
  in
  Alcotest.(check int) "partitioned store ok" 0
    (List.length (verify partitioned));
  (* Accumulation is a reduction: replayed in order, legal. *)
  let reduction =
    [
      mk_for ~parallel:true "p" (Iconst 0) (Iconst 4)
        [
          Accum
            {
              op = Acc_sum;
              buf = "v";
              idx = [ Iconst 0 ];
              value = Float_of_int (Ivar "p");
            };
        ];
    ]
  in
  Alcotest.(check int) "reduction ok" 0 (List.length (verify reduction));
  (* Disjointness via inner loop bounds that depend on the parallel
     variable — the shape tiling restriction produces. *)
  let via_bounds =
    [
      mk_for ~parallel:true "t" (Iconst 0) (Iconst 4)
        [
          mk_for "y" (Imul (Ivar "t", Iconst 2))
            (Imul (Iadd (Ivar "t", Iconst 1), Iconst 2))
            [ Store { buf = "v"; idx = [ Ivar "y" ]; value = Fconst 0.0 } ];
        ];
    ]
  in
  Alcotest.(check int) "tiling-restricted store ok" 0
    (List.length (verify via_bounds))

let test_bad_tile_meta () =
  let stmts =
    [
      mk_for ~tile:{ tile_size = 0; dep_distance = 1 } "t" (Iconst 0) (Iconst 4)
        [];
    ]
  in
  check_rejected ~what:"zero tile size" ~mentions:[ "tile size 0" ]
    (verify stmts);
  let stmts =
    [
      mk_for "n" (Iconst 0) (Iconst 4)
        [
          mk_for
            ~tile:{ tile_size = 2; dep_distance = 1 }
            "t" (Iconst 0) (Ivar "n") [];
        ];
    ]
  in
  check_rejected ~what:"non-constant tiled bounds"
    ~mentions:[ "constant bounds" ]
    (verify stmts)

let test_bad_gemm_tile () =
  let gemm =
    Gemm
      {
        transa = false;
        transb = false;
        m = Iconst 4;
        n = Iconst 1;
        k = Iconst 8;
        a = "a";
        off_a = Iconst 0;
        b = "v";
        off_b = Iconst 0;
        c = "v";
        off_c = Iconst 0;
        alpha = 1.0;
        beta = 1.0;
        gemm_tile = Some { role = Rows_m; rows_per_y = 3; y_extent = 7 };
      }
  in
  check_rejected ~what:"inconsistent gemm tile metadata"
    ~mentions:[ "m=4"; "rows_per_y*y_extent=21" ]
    (verify [ gemm ])

let test_diagnostic_names_region_and_stmt () =
  let errs =
    verify [ Store { buf = "ghost"; idx = []; value = Fconst 0.0 } ]
  in
  match errs with
  | e :: _ ->
      Alcotest.(check string) "region recorded" region e.Ir_verify.region;
      Alcotest.(check bool) "statement recorded" true (e.Ir_verify.stmt <> None);
      let rendered = Ir_verify.to_string e in
      Alcotest.(check bool) "rendered names region" true
        (contains rendered region);
      Alcotest.(check bool) "rendered names buffer" true
        (contains rendered "ghost")
  | [] -> Alcotest.fail "expected a diagnostic"

let suite =
  [
    Alcotest.test_case "well-formed accepted" `Quick test_well_formed;
    Alcotest.test_case "unbound loop var" `Quick test_unbound_var;
    Alcotest.test_case "dangling buffer" `Quick test_dangling_buffer;
    Alcotest.test_case "wrong index arity" `Quick test_wrong_arity;
    Alcotest.test_case "bogus parallel annotation" `Quick test_bogus_parallel;
    Alcotest.test_case "legal parallel patterns" `Quick test_parallel_legal;
    Alcotest.test_case "bad tile metadata" `Quick test_bad_tile_meta;
    Alcotest.test_case "bad gemm tile metadata" `Quick test_bad_gemm_tile;
    Alcotest.test_case "diagnostics name region+stmt" `Quick
      test_diagnostic_names_region_and_stmt;
  ]
