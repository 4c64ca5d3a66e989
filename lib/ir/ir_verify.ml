open Ir

type error = { region : string; stmt : string option; reason : string }

let to_string e =
  match e.stmt with
  | Some s -> Printf.sprintf "[%s] %s\n    at: %s" e.region e.reason s
  | None -> Printf.sprintf "[%s] %s" e.region e.reason

module SS = Set.Make (String)

let ivars = Ir_analysis.ivars

let rec fvars acc e =
  match e with
  | Fconst _ -> acc
  | Load (_, idx) -> List.fold_left ivars acc idx
  | Float_of_int a -> ivars acc a
  | Funop (_, a) -> fvars acc a
  | Fbinop (_, a, b) -> fvars (fvars acc a) b
  | Select (c, a, b) -> fvars (fvars (cvars acc c) a) b

and cvars acc c =
  match c with
  | Icmp (_, a, b) -> ivars (ivars acc a) b
  | Fcmp (_, a, b) -> fvars (fvars acc a) b
  | Cand (a, b) | Cor (a, b) -> cvars (cvars acc a) b
  | Cnot a -> cvars acc a

let stmt_head s =
  let text = String.trim (Ir_printer.stmt_to_string s) in
  let line =
    match String.index_opt text '\n' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  if String.length line > 120 then String.sub line 0 117 ^ "..." else line

let verify_stmts ?(bound = []) ~shape_of ~region stmts =
  let errors = ref [] in
  let err ?stmt fmt =
    Printf.ksprintf
      (fun reason ->
        errors := { region; stmt = Option.map stmt_head stmt; reason } :: !errors)
      fmt
  in
  let check_bound ~stmt env vars =
    SS.iter
      (fun x ->
        if not (SS.mem x env) then err ~stmt "unbound loop variable `%s'" x)
      vars
  in
  let check_buf ~stmt ?idx buf =
    match shape_of buf with
    | None -> err ~stmt "reference to buffer `%s' absent from the buffer plan" buf
    | Some shape -> (
        match idx with
        | None -> ()
        | Some idx ->
            if List.length idx <> Shape.rank shape then
              err ~stmt
                "buffer `%s' indexed with arity %d but has rank %d (shape %s)"
                buf (List.length idx) (Shape.rank shape) (Shape.to_string shape))
  in
  let check_loads ~stmt = List.iter (fun (b, idx) -> check_buf ~stmt ~idx b) in
  let check_gemm_tile ~stmt (g : gemm) =
    match g.gemm_tile with
    | None -> ()
    | Some gt ->
        if gt.rows_per_y < 1 || gt.y_extent < 1 then
          err ~stmt "gemm tile metadata must be positive (rows_per_y=%d, y_extent=%d)"
            gt.rows_per_y gt.y_extent
        else
          let dim_name, dim = match gt.role with Rows_m -> ("m", g.m) | Rows_k -> ("k", g.k) in
          (match Ir_analysis.const_value dim with
          | Some n when n <> gt.rows_per_y * gt.y_extent ->
              err ~stmt
                "gemm tile metadata inconsistent: %s=%d but rows_per_y*y_extent=%d"
                dim_name n (gt.rows_per_y * gt.y_extent)
          | _ -> ())
  in
  (* Cross-iteration dependence check for a parallel loop over [v],
     delegated to the {!Ir_deps} analyzer under the interval
     environment of the enclosing loops. Accepts only buffers proven
     Independent (disjoint footprints per iteration) or Reduction
     (associative accumulates, replayed in order per §5.4.3); Conflicting
     verdicts carry a concrete witness iteration pair. *)
  let check_parallel benv (l : loop) =
    let dims buf = Option.map (fun (s : Shape.t) -> (s :> int array)) (shape_of buf) in
    List.iter
      (fun (bv : Ir_deps.buffer_verdict) ->
        match bv.bv_verdict with
        | Ir_deps.Independent | Ir_deps.Reduction _ -> ()
        | Ir_deps.Conflicting w ->
            err ~stmt:(For l)
              "parallel loop `%s' may write the same element of `%s' from \
               distinct iterations: %s (between `%s' and `%s')"
              l.var bv.bv_buf (Ir_deps.witness_to_string w) w.wit_stmt_a
              w.wit_stmt_b
        | Ir_deps.Unknown reason ->
            err ~stmt:(For l)
              "cannot prove buffer `%s' race-free under parallel loop `%s': %s"
              bv.bv_buf l.var reason)
      (Ir_deps.analyze_loop ~env:benv ~shape_of:dims l)
  in
  let rec go env benv s =
    match s with
    | Store { buf; idx; value } | Accum { buf; idx; value; _ } ->
        check_bound ~stmt:s env (List.fold_left ivars (fvars SS.empty value) idx);
        check_buf ~stmt:s ~idx buf;
        check_loads ~stmt:s (loads value)
    | Memset { buf; _ } -> check_buf ~stmt:s buf
    | Gemm g ->
        check_bound ~stmt:s env
          (List.fold_left ivars SS.empty [ g.m; g.n; g.k; g.off_a; g.off_b; g.off_c ]);
        check_buf ~stmt:s g.a;
        check_buf ~stmt:s g.b;
        check_buf ~stmt:s g.c;
        check_gemm_tile ~stmt:s g
    | Extern e ->
        List.iter (check_buf ~stmt:s) e.reads;
        List.iter (check_buf ~stmt:s) e.writes;
        (match e.item_var with
        | Some v when not (SS.mem v env) ->
            err ~stmt:s "extern `%s' references unbound item variable `%s'" e.name v
        | _ -> ())
    | Fusion_barrier _ -> ()
    | If (c, t, e) ->
        check_bound ~stmt:s env (cvars SS.empty c);
        check_loads ~stmt:s (cond_loads c);
        List.iter (go env (Ir_bounds.assume c benv)) t;
        List.iter (go env (Ir_bounds.assume_not c benv)) e
    | For l ->
        check_bound ~stmt:s env (ivars (ivars SS.empty l.lo) l.hi);
        (match l.tile with
        | Some t ->
            if t.tile_size < 1 then
              err ~stmt:s "tiled loop `%s' has tile size %d < 1" l.var t.tile_size;
            if t.dep_distance < 1 then
              err ~stmt:s "tiled loop `%s' has dependence distance %d < 1" l.var
                t.dep_distance;
            if
              Ir_analysis.const_value l.lo = None
              || Ir_analysis.const_value l.hi = None
            then
              err ~stmt:s "tiled loop `%s' must have constant bounds" l.var
        | None -> ());
        if l.parallel then check_parallel benv l;
        List.iter
          (go (SS.add l.var env)
             (Ir_bounds.bind_range l.var ~lo:l.lo ~hi:l.hi benv))
          l.body
  in
  List.iter (go (SS.of_list bound) Ir_bounds.empty_env) stmts;
  List.rev !errors
