open Ir

let rec is_free_of v e =
  match e with
  | Iconst _ -> true
  | Ivar v' -> not (String.equal v v')
  | Iadd (a, b) | Isub (a, b) | Imul (a, b) | Idiv (a, b) | Imod (a, b)
  | Imin (a, b) | Imax (a, b) ->
      is_free_of v a && is_free_of v b

module SS = Set.Make (String)

let rec ivars acc e =
  match e with
  | Iconst _ -> acc
  | Ivar v -> SS.add v acc
  | Iadd (a, b) | Isub (a, b) | Imul (a, b) | Idiv (a, b) | Imod (a, b)
  | Imin (a, b) | Imax (a, b) ->
      ivars (ivars acc a) b

let rec cond_free_of v c =
  match c with
  | Icmp (_, a, b) -> is_free_of v a && is_free_of v b
  | Fcmp (_, a, b) -> fexpr_free_of v a && fexpr_free_of v b
  | Cand (a, b) | Cor (a, b) -> cond_free_of v a && cond_free_of v b
  | Cnot a -> cond_free_of v a

and fexpr_free_of v e =
  match e with
  | Fconst _ -> true
  | Load (_, idx) -> List.for_all (is_free_of v) idx
  | Float_of_int a -> is_free_of v a
  | Funop (_, a) -> fexpr_free_of v a
  | Fbinop (_, a, b) -> fexpr_free_of v a && fexpr_free_of v b
  | Select (c, a, b) -> cond_free_of v c && fexpr_free_of v a && fexpr_free_of v b

let rec stride_of ~var e =
  match e with
  | Iconst _ -> Some 0
  | Ivar v -> Some (if String.equal v var then 1 else 0)
  | Iadd (a, b) -> (
      match (stride_of ~var a, stride_of ~var b) with
      | Some x, Some y -> Some (x + y)
      | _ -> None)
  | Isub (a, b) -> (
      match (stride_of ~var a, stride_of ~var b) with
      | Some x, Some y -> Some (x - y)
      | _ -> None)
  | Imul (a, b) -> (
      (* Affine only when at least one side is free of [var]; the free
         side must itself be a constant for the coefficient to be known
         statically. *)
      match (stride_of ~var a, stride_of ~var b) with
      | Some 0, Some 0 -> Some 0
      | Some sa, Some 0 -> ( match const_value b with Some c -> Some (sa * c) | None -> None)
      | Some 0, Some sb -> ( match const_value a with Some c -> Some (c * sb) | None -> None)
      | _ -> None)
  | Idiv (a, b) | Imod (a, b) | Imin (a, b) | Imax (a, b) ->
      if is_free_of var a && is_free_of var b then Some 0 else None

and const_value e = match simplify_iexpr e with Iconst n -> Some n | _ -> None

let flat_index ~shape idx =
  if List.length idx <> Array.length shape then
    invalid_arg
      (Printf.sprintf "Ir_analysis.flat_index: rank mismatch (%d vs %d)"
         (List.length idx) (Array.length shape));
  let strides = Shape.strides shape in
  let acc = ref (Iconst 0) in
  List.iteri (fun i e -> acc := Iadd (!acc, Imul (e, Iconst strides.(i)))) idx;
  simplify_iexpr !acc

let rec eval_iexpr env e =
  match e with
  | Iconst n -> n
  | Ivar v -> env v
  | Iadd (a, b) -> eval_iexpr env a + eval_iexpr env b
  | Isub (a, b) -> eval_iexpr env a - eval_iexpr env b
  | Imul (a, b) -> eval_iexpr env a * eval_iexpr env b
  | Idiv (a, b) -> eval_iexpr env a / eval_iexpr env b
  | Imod (a, b) -> eval_iexpr env a mod eval_iexpr env b
  | Imin (a, b) -> min (eval_iexpr env a) (eval_iexpr env b)
  | Imax (a, b) -> max (eval_iexpr env a) (eval_iexpr env b)

type cost = { flops : float; bytes : float; parallel_iters : float }

let zero_cost = { flops = 0.0; bytes = 0.0; parallel_iters = 1.0 }

let rec fexpr_ops ~width_of e =
  (* (flops, load bytes) in one evaluation of the expression; each load
     moves the storage width of its buffer. *)
  match e with
  | Fconst _ -> (0.0, 0.0)
  | Float_of_int _ -> (0.0, 0.0)
  | Load (b, _) -> (0.0, width_of b)
  | Funop (_, a) ->
      let f, l = fexpr_ops ~width_of a in
      (f +. 1.0, l)
  | Fbinop (_, a, b) ->
      let fa, la = fexpr_ops ~width_of a and fb, lb = fexpr_ops ~width_of b in
      (fa +. fb +. 1.0, la +. lb)
  | Select (_, a, b) ->
      let fa, la = fexpr_ops ~width_of a and fb, lb = fexpr_ops ~width_of b in
      (fa +. fb +. 1.0, la +. lb)

let cost_of_stmts ?(bindings = []) ?bytes_of ?(width_of = fun _ -> 4.0) stmts =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (v, n) -> Hashtbl.replace tbl v n) bindings;
  let env v =
    match Hashtbl.find_opt tbl v with
    | Some n -> n
    | None -> failwith (Printf.sprintf "cost_of_stmts: unbound loop var %s" v)
  in
  let rec go_stmts ss = List.fold_left (fun acc s -> combine acc (go s)) zero_cost ss
  and combine a b =
    {
      flops = a.flops +. b.flops;
      bytes = a.bytes +. b.bytes;
      parallel_iters = Float.max a.parallel_iters b.parallel_iters;
    }
  and go s =
    match s with
    | Store { buf; value; _ } ->
        let f, l = fexpr_ops ~width_of value in
        { flops = f; bytes = l +. width_of buf; parallel_iters = 1.0 }
    | Accum { buf; value; _ } ->
        let f, l = fexpr_ops ~width_of value in
        {
          flops = f +. 1.0;
          bytes = l +. (2.0 *. width_of buf);
          parallel_iters = 1.0;
        }
    | Memset { buf = _; _ } ->
        (* Size unknown here; charged by the executor which knows the
           buffer extents. Treat as free in static accounting. *)
        zero_cost
    | Fusion_barrier _ -> zero_cost
    | Extern e -> (
        (* Opaque array-style calls (softmax, loss, data-copy helpers)
           stream their operand buffers once; estimating their traffic
           from the declared reads/writes keeps cost-model deadlines
           from undercounting data-movement sections. Flops stay zero:
           these calls are bandwidth-bound. *)
        match bytes_of with
        | None -> zero_cost
        | Some f ->
            let bytes =
              List.fold_left (fun acc b -> acc +. f b) 0.0 (e.reads @ e.writes)
            in
            { flops = 0.0; bytes; parallel_iters = 1.0 })
    | Gemm g ->
        let m = float_of_int (eval_iexpr env g.m)
        and n = float_of_int (eval_iexpr env g.n)
        and k = float_of_int (eval_iexpr env g.k) in
        {
          flops = 2.0 *. m *. n *. k;
          bytes =
            (width_of g.a *. m *. k)
            +. (width_of g.b *. k *. n)
            +. (2.0 *. width_of g.c *. m *. n);
          parallel_iters = 1.0;
        }
    | If (_, t, e) ->
        (* Charge the heavier branch. *)
        let ct = go_stmts t and ce = go_stmts e in
        if ct.flops +. ct.bytes >= ce.flops +. ce.bytes then ct else ce
    | For l ->
        let lo = eval_iexpr env l.lo and hi = eval_iexpr env l.hi in
        let trip = float_of_int (max 0 (hi - lo)) in
        Hashtbl.replace tbl l.var lo;
        let body = go_stmts l.body in
        Hashtbl.remove tbl l.var;
        {
          flops = trip *. body.flops;
          bytes = trip *. body.bytes;
          parallel_iters =
            (if l.parallel then trip *. body.parallel_iters
             else body.parallel_iters);
        }
  in
  go_stmts stmts
