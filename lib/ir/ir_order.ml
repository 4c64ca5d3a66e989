(* Stride-aware loop permutation: sink one unit-stride loop to the
   innermost position of each perfect band. The interface states the
   rule and why every output bit is kept. *)

open Ir

(* The loops of a perfect band, outermost first, and its leaf. *)
let rec band (l : loop) =
  match l.body with
  | [ For inner ] -> Option.map (fun (ls, leaf) -> (l :: ls, leaf)) (band inner)
  | [ (Store _ | Accum _) as leaf ] -> Some ([ l ], leaf)
  | _ -> None

(* How far one step of [v] moves an access through its buffer's
   row-major storage; [None] when the shape is unknown or [v] enters
   the index non-affinely. *)
let flat_stride ~shape_of v (buf, idx) =
  if List.for_all (Ir_analysis.is_free_of v) idx then Some 0
  else
    match shape_of buf with
    | Some shape when Array.length shape = List.length idx ->
        Ir_analysis.stride_of ~var:v (Ir_analysis.flat_index ~shape idx)
    | _ -> None

let trip_bound env (l : loop) =
  match (Ir_bounds.range env (simplify_iexpr (Isub (l.hi, l.lo)))).Ir_bounds.hi with
  | Ir_bounds.Fin t -> Some t
  | Ir_bounds.Neg_inf | Ir_bounds.Pos_inf -> None

(* The band's loops in their new order, or [None] to keep it. The
   static tests run first; the trip bounds and the dependence check
   only for a loop that passes them. *)
let sink_band ?batch_var ~shape_of env loops ~dst ~value =
  let unit_dst v = flat_stride ~shape_of v dst = Some 1 in
  let reads = loads value in
  (* [env] extended with the band loops enclosing [l]. *)
  let env_of (l : loop) =
    let rec bind env = function
      | (o : loop) :: rest when o != l ->
          bind (Ir_bounds.bind_range o.var ~lo:o.lo ~hi:o.hi env) rest
      | _ -> env
    in
    bind env loops
  in
  let movable ~inner ~inside (c : loop) =
    batch_var <> Some c.var
    && c.tile = None
    && unit_dst c.var
    && List.for_all
         (fun ld ->
           match flat_stride ~shape_of c.var ld with
           | Some (0 | 1) -> true
           | _ -> false)
         reads
    && List.for_all
         (fun (l : loop) ->
           Ir_analysis.is_free_of c.var l.lo && Ir_analysis.is_free_of c.var l.hi)
         inside
    &&
    let env = env_of c in
    (match (trip_bound env c, trip_bound (env_of inner) inner) with
    | Some t, Some t_inner -> 2 * t >= t_inner
    | _ -> false)
    && List.for_all
         (fun (bv : Ir_deps.buffer_verdict) -> bv.bv_verdict = Ir_deps.Independent)
         (Ir_deps.analyze_loop ~env ~shape_of c)
  in
  match List.rev loops with
  | inner :: outer when not (unit_dst inner.var) ->
      (* Candidates innermost first, each with the loops inside it. *)
      let rec pick inside = function
        | [] -> None
        | c :: rest ->
            if movable ~inner ~inside c then Some c else pick (c :: inside) rest
      in
      Option.map
        (fun c -> List.filter (fun l -> l != c) loops @ [ c ])
        (pick [ inner ] outer)
  | _ -> None

let sink_unit_stride ?batch_var ~shape_of stmts =
  let rebuild loops leaf =
    List.fold_right (fun (l : loop) body -> For { l with body = [ body ] }) loops leaf
  in
  let rec go env s =
    match s with
    | For l -> (
        match band l with
        | Some (loops, (Store { buf; idx; value } | Accum { buf; idx; value; _ } as leaf))
          -> (
            match sink_band ?batch_var ~shape_of env loops ~dst:(buf, idx) ~value with
            | Some loops -> rebuild loops leaf
            | None -> s)
        | _ ->
            let env = Ir_bounds.bind_range l.var ~lo:l.lo ~hi:l.hi env in
            For { l with body = List.map (go env) l.body })
    | If (c, t, e) ->
        If
          ( c,
            List.map (go (Ir_bounds.assume c env)) t,
            List.map (go (Ir_bounds.assume_not c env)) e )
    | Store _ | Accum _ | Memset _ | Gemm _ | Fusion_barrier _ | Extern _ -> s
  in
  List.map (go Ir_bounds.empty_env) stmts
