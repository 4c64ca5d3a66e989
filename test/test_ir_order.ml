(* Tests for the loop-permutation step (Ir_order): a QCheck property
   over random perfect loop bands against the reference interpreter,
   and the orders it picks on the stock models. *)

open Ir

(* --- random perfect bands --------------------------------------- *)

(* One affine index dimension: Σ coeff·var + offset over the band's
   variables, with non-negative coefficients so the extent follows from
   the loop extents. *)
type dim = { terms : (int * int) list; (* (loop number, coeff) *) offset : int }

type case = {
  extents : int array;  (* loop j iterates inside [0, extents.(j)) *)
  bounds : (iexpr * iexpr) array;  (* (lo, hi) of loop j *)
  leaf : [ `Store | `Sum | `Max ];
  dst : dim list;
  src : dim list;
  self_read : bool;  (* value also reads dst one step along its last dim *)
}

let loop_var j = Printf.sprintf "i%d" j

let dim_expr d =
  List.fold_left
    (fun acc (j, c) -> Iadd (acc, Imul (int_ c, var (loop_var j))))
    (int_ d.offset) d.terms

let dim_extent extents d =
  List.fold_left (fun acc (j, c) -> acc + (c * (extents.(j) - 1))) d.offset d.terms + 1

let shape_of_case c =
  let dst = List.map (dim_extent c.extents) c.dst |> Array.of_list in
  (* The self-read's shifted last index reaches one past the store's. *)
  if c.self_read then dst.(Array.length dst - 1) <- dst.(Array.length dst - 1) + 1;
  [ ("dst", dst); ("src", Array.of_list (List.map (dim_extent c.extents) c.src)) ]

let band_of_case c =
  let dst_idx = List.map dim_expr c.dst in
  let src = load "src" (List.map dim_expr c.src) in
  let value =
    if c.self_read then
      let shifted =
        List.mapi
          (fun k e -> if k = List.length dst_idx - 1 then Iadd (e, int_ 1) else e)
          dst_idx
      in
      Fbinop (Fadd, src, Fbinop (Fmul, f 0.5, load "dst" shifted))
    else src
  in
  let leaf =
    match c.leaf with
    | `Store -> store "dst" dst_idx value
    | `Sum -> accum "dst" dst_idx value
    | `Max -> accum_max "dst" dst_idx value
  in
  let n = Array.length c.extents in
  let rec build j =
    if j = n then leaf
    else
      let lo, hi = c.bounds.(j) in
      loop (loop_var j) lo hi [ build (j + 1) ]
  in
  build 0

let case_gen =
  let open QCheck.Gen in
  let* n = int_range 2 4 in
  let* extents = array_repeat n (int_range 1 4) in
  (* Loop j > 0 may take bounds from the enclosing variables, clamped
     to [0, extent): Test_util's random expressions over them. *)
  let* bounds =
    flatten_a
      (Array.init n (fun j ->
           let const = return (int_ 0, int_ extents.(j)) in
           if j = 0 then const
           else
             let vars = List.init j loop_var in
             frequency
               [
                 (2, const);
                 ( 1,
                   map2
                     (fun lo hi ->
                       (Imax (int_ 0, lo), Imin (int_ extents.(j), hi)))
                     (Test_util.linear_expr_gen ~vars ~coeff:2)
                     (Test_util.linear_expr_gen ~vars ~coeff:2) );
               ]))
  in
  let dim_gen =
    let term = pair (int_bound (n - 1)) (frequency [ (3, return 1); (1, return 2) ]) in
    map2
      (fun terms offset -> { terms; offset })
      (frequency [ (1, return []); (4, list_size (return 1) term); (1, list_size (return 2) term) ])
      (int_bound 1)
  in
  (* Mostly give dst (and often src) a "channel" last dimension: one
     outer loop at coefficient 1, the shape the step looks for. *)
  let* channel = map (fun j -> { terms = [ (j, 1) ]; offset = 0 }) (int_bound (n - 2)) in
  let last_dim odds = frequency [ (odds, return channel); (1, dim_gen) ] in
  let* rank = int_range 1 3 in
  let* dst = map2 (fun ds d -> ds @ [ d ]) (list_repeat (rank - 1) dim_gen) (last_dim 3) in
  let* src = map2 (fun ds d -> ds @ [ d ]) (list_repeat (rank - 1) dim_gen) (last_dim 2) in
  let* leaf = oneofl [ `Store; `Sum; `Max ] in
  let* self_read = frequency [ (3, return false); (1, return true) ] in
  return { extents; bounds; leaf; dst; src; self_read }

let print_case c = Ir_printer.stmts_to_string [ band_of_case c ]

(* The band's loops, outermost first. *)
let rec band_loops s =
  match s with
  | For l -> l :: List.concat_map band_loops l.body
  | _ -> []

let run_case c band =
  let pool = Buffer_pool.create () in
  let rng = Random.State.make [| 0x0de; Hashtbl.hash (print_case c) |] in
  List.iter
    (fun (name, shape) ->
      let t = Buffer_pool.alloc pool name (Shape.create (Array.to_list shape)) in
      for k = 0 to Tensor.numel t - 1 do
        (* Mixed magnitudes, so a changed summation order shows in the
           low bits. *)
        Tensor.set1 t k
          ((Random.State.float rng 2.0 -. 1.0)
          *. (10.0 ** float_of_int (Random.State.int rng 5)))
      done)
    (shape_of_case c);
  Ir_eval.run ~lookup:(Buffer_pool.lookup pool) [ band ];
  Tensor.to_array (Buffer_pool.lookup pool "dst")

let moved = ref 0

let prop_band_permutation =
  QCheck.Test.make ~count:400 ~name:"permuted band = original, bit for bit"
    (QCheck.make ~print:print_case case_gen)
    (fun c ->
      let shapes = shape_of_case c in
      let shape_of b = List.assoc_opt b shapes in
      let band = band_of_case c in
      let permuted =
        match Ir_order.sink_unit_stride ~shape_of [ band ] with
        | [ s ] -> s
        | _ -> QCheck.Test.fail_report "one statement in, one out"
      in
      (match
         Ir_verify.verify_stmts
           ~shape_of:(fun b -> Option.map (fun a -> Shape.create (Array.to_list a)) (shape_of b))
           ~region:"band" [ permuted ]
       with
      | [] -> ()
      | e :: _ -> QCheck.Test.fail_reportf "verifier: %s" (Ir_verify.to_string e));
      let before = band_loops band and after = band_loops permuted in
      let vars ls = List.map (fun (l : loop) -> l.var) ls in
      if vars before <> vars after then begin
        incr moved;
        (* Exactly one loop moved, to the innermost position, and
           Ir_deps proves it independent where it stood. *)
        let c_var = List.nth (vars after) (List.length after - 1) in
        if List.filter (( <> ) c_var) (vars before) @ [ c_var ] <> vars after then
          QCheck.Test.fail_report "not a single move innermost";
        let env, moved_loop =
          List.fold_left
            (fun (env, found) (l : loop) ->
              match found with
              | Some _ -> (env, found)
              | None when l.var = c_var -> (env, Some l)
              | None -> (Ir_bounds.bind_range l.var ~lo:l.lo ~hi:l.hi env, None))
            (Ir_bounds.empty_env, None) before
        in
        List.iter
          (fun (bv : Ir_deps.buffer_verdict) ->
            if bv.bv_verdict <> Ir_deps.Independent then
              QCheck.Test.fail_reportf "moved %s although %s is %s" c_var bv.bv_buf
                (Ir_deps.verdict_to_string bv.bv_verdict))
          (Ir_deps.analyze_loop ~env ~shape_of (Option.get moved_loop))
      end;
      let a = run_case c band and b = run_case c permuted in
      Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b
      || QCheck.Test.fail_reportf "outputs differ after\n%s"
           (Ir_printer.stmts_to_string [ permuted ]))

let test_random_bands () =
  moved := 0;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 16; 0x1a77e |]) prop_band_permutation;
  (* The generator must reach the step, not only its refusals. *)
  Alcotest.(check bool) (Printf.sprintf "%d of 400 bands permuted" !moved) true (!moved >= 40)

(* --- loop orders ------------------------------------------------ *)

(* The innermost loop around the first Store/Accum into [buf] whose
   value reads [reading] (when given). *)
let innermost_loop ?reading buf stmts =
  let reads value =
    match reading with
    | None -> true
    | Some r -> List.exists (fun (b, _) -> b = r) (loads value)
  in
  let rec go inner s =
    match s with
    | For l -> List.find_map (go l.var) l.body
    | If (_, t, e) -> List.find_map (go inner) (t @ e)
    | Store { buf = b; value; _ } | Accum { buf = b; value; _ }
      when b = buf && reads value ->
        Some inner
    | _ -> None
  in
  match List.find_map (go "") stmts with
  | Some v -> v
  | None -> Alcotest.failf "no statement writes %s" buf

(* dst[c, n] = src[c, n]: the outer n steps dst by 1, the inner c by
   8. n moves, unless it is the batch loop. *)
let test_batch_loop_pinned () =
  let band =
    loop "n" (int_ 0) (int_ 8)
      [ loop "c" (int_ 0) (int_ 4) [ store "dst" [ var "c"; var "n" ] (load "src" [ var "c"; var "n" ]) ] ]
  in
  let shape_of _ = Some [| 4; 8 |] in
  Alcotest.(check string)
    "moved" "n"
    (innermost_loop "dst" (Ir_order.sink_unit_stride ~shape_of [ band ]));
  Alcotest.(check string)
    "batch loop stays" "c"
    (innermost_loop "dst" (Ir_order.sink_unit_stride ~batch_var:"n" ~shape_of [ band ]))

let stmts_of sections = List.concat_map (fun (s : Program.section) -> s.Program.stmts) sections

let test_vgg_channels_innermost () =
  let spec = Models.vgg ~batch:4 ~scale:Models.bench_scale in
  let prog = Pipeline.compile ~seed:1 Config.default spec.Models.net in
  let fwd = stmts_of prog.Program.forward and bwd = stmts_of prog.Program.backward in
  let check name expect got = Alcotest.(check string) name expect got in
  check "conv5_1 gather" "w0_2~conv5_1" (innermost_loop "conv5_1.in0" fwd);
  (* 8 channels under 16 columns: at least half the trip, so they sink. *)
  check "conv2_1 gather" "w0_2~conv2_1" (innermost_loop "conv2_1.in0" fwd);
  check "pool5 forward" "d2~pool5" (innermost_loop "pool5.value" ~reading:"relu5_2.value" fwd);
  check "pool5 backward" "d2~pool5" (innermost_loop "relu5_2.grad" ~reading:"pool5.grad" bwd)

let test_vgg_block_columns_innermost () =
  (* 3 channels under 32 columns: the column loop stays innermost. *)
  let spec = Models.vgg_first_block ~batch:8 ~scale:Models.bench_scale in
  let prog = Pipeline.compile ~seed:1 Config.default spec.Models.net in
  Alcotest.(check string)
    "conv1_1 gather" "d1~conv1_1"
    (innermost_loop "conv1_1.in0" (stmts_of prog.Program.forward))

let suite =
  [
    Alcotest.test_case "random bands vs Ir_eval (400)" `Quick test_random_bands;
    Alcotest.test_case "batch loop pinned" `Quick test_batch_loop_pinned;
    Alcotest.test_case "vgg: channels innermost" `Quick test_vgg_channels_innermost;
    Alcotest.test_case "vgg-block: columns innermost" `Quick test_vgg_block_columns_innermost;
  ]
