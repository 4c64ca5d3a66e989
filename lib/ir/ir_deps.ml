open Ir

type witness = {
  wit_buf : string;
  wit_iter_a : int;
  wit_iter_b : int;
  wit_index : int list;
  wit_stmt_a : string;
  wit_stmt_b : string;
}

type verdict =
  | Independent
  | Reduction of Ir.accum_op
  | Conflicting of witness
  | Unknown of string

type buffer_verdict = { bv_buf : string; bv_verdict : verdict }
type loop_report = { lr_var : string; lr_verdicts : buffer_verdict list }

let witness_to_string w =
  Printf.sprintf "iterations %d and %d both touch %s[%s]" w.wit_iter_a
    w.wit_iter_b w.wit_buf
    (String.concat ", " (List.map string_of_int w.wit_index))

let verdict_to_string = function
  | Independent -> "independent"
  | Reduction Acc_sum -> "reduction(+)"
  | Reduction Acc_max -> "reduction(max)"
  | Conflicting w -> Printf.sprintf "CONFLICT: %s" (witness_to_string w)
  | Unknown r -> Printf.sprintf "unknown: %s" r

let legal vs =
  List.for_all
    (fun v ->
      match v.bv_verdict with
      | Independent | Reduction _ -> true
      | Conflicting _ | Unknown _ -> false)
    vs

let stmt_head s =
  let text = String.trim (Ir_printer.stmt_to_string s) in
  let line =
    match String.index_opt text '\n' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  if String.length line > 80 then String.sub line 0 77 ^ "..." else line

(* ------------------------------------------------------------------ *)
(* Access collection                                                   *)
(* ------------------------------------------------------------------ *)

type form =
  | Elems of iexpr list  (* per-dimension element access *)
  | Span of iexpr * iexpr  (* flat [off, off + len) *)

type access = {
  ac_buf : string;
  ac_write : bool;
  ac_accum : accum_op option;  (* [Some op] for associative updates *)
  ac_form : form;
  ac_stmt : stmt;
  ac_inner : (string * iexpr * iexpr) list;
      (* Enclosing loops inside the parallel body, outermost first:
         their variables take fresh values in each parallel iteration
         and must be eliminated from footprints. *)
  ac_guarded : bool;  (* under an [If]: may not execute *)
}

(* Walk the body collecting every access plus the externs encountered.
   Extern footprints are opaque: their buffers are classified from the
   declared item axis alone. *)
let collect_accesses (l : loop) =
  let accs = ref [] and externs = ref [] in
  let push ~inner ~guarded ~stmt ~write ?accum buf form =
    accs :=
      {
        ac_buf = buf;
        ac_write = write;
        ac_accum = accum;
        ac_form = form;
        ac_stmt = stmt;
        ac_inner = inner;
        ac_guarded = guarded;
      }
      :: !accs
  in
  let push_loads ~inner ~guarded ~stmt =
    List.iter (fun (b, idx) -> push ~inner ~guarded ~stmt ~write:false b (Elems idx))
  in
  let rec go inner guarded s =
    match s with
    | Store { buf; idx; value } ->
        push ~inner ~guarded ~stmt:s ~write:true buf (Elems idx);
        push_loads ~inner ~guarded ~stmt:s (loads value)
    | Accum { op; buf; idx; value } ->
        (* The accumulation's read of its own cell pairs exactly like
           its write, so only the write is recorded. *)
        push ~inner ~guarded ~stmt:s ~write:true ~accum:op buf (Elems idx);
        push_loads ~inner ~guarded ~stmt:s (loads value)
    | Memset { buf; _ } ->
        push ~inner ~guarded ~stmt:s ~write:true buf (Span (Iconst 0, Iconst (-1)))
    | Gemm g ->
        let span off rows cols = Span (off, Imul (rows, cols)) in
        (* beta ≠ 0 is C += A·B: an associative += into the span. *)
        let accum = if g.beta = 0.0 then None else Some Acc_sum in
        push ~inner ~guarded ~stmt:s ~write:true ?accum g.c
          (span g.off_c g.m g.n);
        push ~inner ~guarded ~stmt:s ~write:false g.a (span g.off_a g.m g.k);
        push ~inner ~guarded ~stmt:s ~write:false g.b (span g.off_b g.k g.n)
    | Extern e -> externs := e :: !externs
    | Fusion_barrier _ -> ()
    | If (c, t, e) ->
        push_loads ~inner ~guarded ~stmt:s (cond_loads c);
        List.iter (go inner true) t;
        List.iter (go inner true) e
    | For inner_l ->
        List.iter
          (go (inner @ [ (inner_l.var, inner_l.lo, inner_l.hi) ]) guarded)
          inner_l.body
  in
  List.iter (go [] false) l.body;
  (List.rev !accs, List.rev !externs)

(* ------------------------------------------------------------------ *)
(* Per-iteration footprint bands                                       *)
(* ------------------------------------------------------------------ *)

(* Eliminate the inner loop variables from an index expression by
   monotone substitution of their bound expressions, yielding a lower
   ([dir = false]) or upper ([dir = true]) bound in the parallel
   variable and the outer variables only. Substitution is
   polarity-directed (Isub flips, a negative constant factor flips,
   min/max and division by a positive constant are monotone); [None]
   when the expression uses an inner variable non-monotonically. *)
let rec elim inner dir fuel e =
  if fuel <= 0 then None
  else
    let free_of_inner e =
      List.for_all (fun (w, _, _) -> Ir_analysis.is_free_of w e) inner
    in
    match e with
    | Iconst _ -> Some e
    | Ivar w -> (
        match List.find_opt (fun (x, _, _) -> String.equal x w) inner with
        | None -> Some e
        | Some (_, lo, hi) ->
            if dir then elim inner dir (fuel - 1) (Isub (hi, Iconst 1))
            else elim inner dir (fuel - 1) lo)
    | Iadd (a, b) ->
        Option.bind (elim inner dir fuel a) (fun a' ->
            Option.map (fun b' -> Iadd (a', b')) (elim inner dir fuel b))
    | Isub (a, b) ->
        Option.bind (elim inner dir fuel a) (fun a' ->
            Option.map (fun b' -> Isub (a', b')) (elim inner (not dir) fuel b))
    | Imul (a, b) -> (
        let scaled c other =
          let dir' = if c >= 0 then dir else not dir in
          Option.map
            (fun o -> Imul (Iconst c, o))
            (elim inner dir' fuel other)
        in
        match (Ir_analysis.const_value a, Ir_analysis.const_value b) with
        | Some c, _ -> scaled c b
        | _, Some c -> scaled c a
        | None, None -> if free_of_inner e then Some e else None)
    | Idiv (a, b) -> (
        match Ir_analysis.const_value b with
        | Some c when c > 0 ->
            Option.map (fun a' -> Idiv (a', b)) (elim inner dir fuel a)
        | Some c when c < 0 ->
            Option.map (fun a' -> Idiv (a', b)) (elim inner (not dir) fuel a)
        | _ -> if free_of_inner e then Some e else None)
    | Imod _ -> if free_of_inner e then Some e else None
    | Imin (a, b) ->
        Option.bind (elim inner dir fuel a) (fun a' ->
            Option.map (fun b' -> Imin (a', b')) (elim inner dir fuel b))
    | Imax (a, b) ->
        Option.bind (elim inner dir fuel a) (fun a' ->
            Option.map (fun b' -> Imax (a', b')) (elim inner dir fuel b))

let elim_fuel = 16

(* The band [(lo, hi)] (inclusive) covered by one expression across one
   iteration of the parallel loop. *)
let band inner e =
  if List.for_all (fun (w, _, _) -> Ir_analysis.is_free_of w e) inner then
    Some (e, e)
  else
    match (elim inner false elim_fuel e, elim inner true elim_fuel e) with
    | Some lo, Some hi -> Some (lo, hi)
    | _ -> None

(* Bands of an access, one per dimension ([Elems]) or one flat band
   ([Span], length resolved against the buffer extent for memsets). *)
let bands ~numel a =
  match a.ac_form with
  | Elems idx ->
      let bs = List.map (band a.ac_inner) idx in
      if List.for_all Option.is_some bs then Some (List.map Option.get bs)
      else None
  | Span (off, len) ->
      let len =
        match Ir_analysis.const_value len with
        | Some n when n >= 0 -> Some (Iconst n)
        | _ when len = Iconst (-1) -> Option.map (fun n -> Iconst n) numel
        | _ -> Some len
      in
      Option.bind len (fun len ->
          Option.bind (band a.ac_inner off) (fun (lo, hi) ->
              Some [ (lo, Iadd (hi, Isub (len, Iconst 1))) ]))

(* ------------------------------------------------------------------ *)
(* Cross-iteration separation                                          *)
(* ------------------------------------------------------------------ *)

(* The fresh variable standing for the (positive) iteration distance;
   '%' keeps it clear of program variable names. *)
let kvar = "%k"

let proves_ge1 env e =
  match (Ir_bounds.range env e).Ir_bounds.lo with
  | Ir_bounds.Fin n -> n >= 1
  | Ir_bounds.Pos_inf -> true
  | Ir_bounds.Neg_inf -> false

(* [band_disjoint env ~v a b]: iteration [v]'s band of one access never
   meets iteration [v + k]'s band of the other, in either role. The
   bands are expressions in [v] and outer variables; [env] binds [v]
   to the loop range (with symbolic bounds) and [%k] to [1, trip − 1].
   Separation asks Ir_bounds to bound the gap below by 1, which
   resolves tiling clamps exactly: min(ext, (v+k)·r) − (v+1)·r
   distributes the min and cancels to (k−1)·r ≥ 0 plus the gap. *)
let band_disjoint env ~v (lo1, hi1) (lo2, hi2) =
  let shift e = Ir.subst_iexpr v (Iadd (Ivar v, Ivar kvar)) e in
  let dir (a_lo, a_hi) (b_lo, b_hi) =
    (* b at iteration v + k, a at iteration v *)
    proves_ge1 env (simplify_iexpr (Isub (shift b_lo, a_hi)))
    || proves_ge1 env (simplify_iexpr (Isub (a_lo, shift b_hi)))
  in
  dir (lo1, hi1) (lo2, hi2) && dir (lo2, hi2) (lo1, hi1)

(* Two accesses are separated when some dimension's bands are disjoint
   across iterations. Mixed-rank or element-vs-span pairs compare in
   flat row-major space. *)
let disjoint_pair env ~v ~shape a b =
  let numel = Option.map (Array.fold_left ( * ) 1) shape in
  let flatten x =
    match x.ac_form with
    | Span _ -> bands ~numel x
    | Elems idx -> (
        match shape with
        | Some sh when Array.length sh = List.length idx ->
            bands ~numel
              { x with ac_form = Elems [ Ir_analysis.flat_index ~shape:sh idx ] }
        | _ -> None)
  in
  let both =
    match (a.ac_form, b.ac_form) with
    | Elems ia, Elems ib when List.length ia = List.length ib ->
        Option.bind (bands ~numel a) (fun ba ->
            Option.map (fun bb -> (ba, bb)) (bands ~numel b))
    | _ ->
        Option.bind (flatten a) (fun ba ->
            Option.map (fun bb -> (ba, bb)) (flatten b))
  in
  match both with
  | None -> false
  | Some (ba, bb) -> List.exists2 (fun x y -> band_disjoint env ~v x y) ba bb

(* ------------------------------------------------------------------ *)
(* Witnesses                                                           *)
(* ------------------------------------------------------------------ *)

(* A concrete colliding iteration pair. Only unguarded accesses whose
   enclosing inner loops provably execute (constant non-empty bounds)
   and whose footprint is closed-form in [v] alone can witness. *)
let eval_at v i e =
  match Ir_analysis.eval_iexpr (fun x -> if String.equal x v then i else raise Exit) e with
  | n -> Some n
  | exception Exit -> None
  | exception Division_by_zero -> None

let witness_ready a =
  (not a.ac_guarded)
  && List.for_all
       (fun (_, lo, hi) ->
         match (Ir_analysis.const_value lo, Ir_analysis.const_value hi) with
         | Some l, Some h -> h > l
         | _ -> false)
       a.ac_inner

let collide ~v ~numel i1 a i2 b =
  let span x =
    match x.ac_form with
    | Span (off, len) ->
        let len =
          if len = Iconst (-1) then numel else Ir_analysis.const_value len
        in
        Some (off, len)
    | Elems _ -> None
  in
  match (a.ac_form, b.ac_form) with
  | Elems ia, Elems ib when List.length ia = List.length ib ->
      let da = List.map (eval_at v i1) ia and db = List.map (eval_at v i2) ib in
      if
        List.for_all2
          (fun x y -> match (x, y) with Some x, Some y -> x = y | _ -> false)
          da db
      then Some (List.map Option.get da)
      else None
  | _ -> (
      match (span a, span b) with
      | Some (off1, Some len1), Some (off2, Some len2) -> (
          match (eval_at v i1 off1, eval_at v i2 off2) with
          | Some o1, Some o2
            when len1 > 0 && len2 > 0
                 && max o1 o2 <= min (o1 + len1) (o2 + len2) - 1 ->
              Some [ max o1 o2 ]
          | _ -> None)
      | _ -> None)

let find_witness ~v ~numel ~lo_v ~hi_v pairs =
  let limit = 8 in
  let rec scan = function
    | [] -> None
    | (a, b) :: rest ->
        if not (witness_ready a && witness_ready b) then scan rest
        else
          let found = ref None in
          (try
             for i1 = lo_v to min (lo_v + limit) (hi_v - 1) do
               for i2 = i1 + 1 to min (i1 + limit) (hi_v - 1) do
                 let hit =
                   match collide ~v ~numel i1 a i2 b with
                   | Some idx -> Some (i1, i2, idx, a, b)
                   | None -> (
                       match collide ~v ~numel i1 b i2 a with
                       | Some idx -> Some (i1, i2, idx, b, a)
                       | None -> None)
                 in
                 match hit with
                 | Some _ ->
                     found := hit;
                     raise Exit
                 | None -> ()
               done
             done
           with Exit -> ());
          (match !found with None -> scan rest | some -> some)
  in
  Option.map
    (fun (i1, i2, idx, a, b) ->
      {
        wit_buf = a.ac_buf;
        wit_iter_a = i1;
        wit_iter_b = i2;
        wit_index = idx;
        wit_stmt_a = stmt_head a.ac_stmt;
        wit_stmt_b = stmt_head b.ac_stmt;
      })
    (scan pairs)

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

module Smap = Map.Make (String)

let classify env ~v ~shape ~lo_v ~hi_v accesses =
  let numel = Option.map (Array.fold_left ( * ) 1) shape in
  let writes = List.filter (fun a -> a.ac_write) accesses in
  let reads = List.filter (fun a -> not a.ac_write) accesses in
  if writes = [] then Independent
  else
    let rec pairs ws =
      match ws with
      | [] -> []
      | w :: rest ->
          List.map (fun x -> (w, x)) ((w :: rest) @ reads) @ pairs rest
    in
    let all = pairs writes in
    let failing =
      List.filter (fun (a, b) -> not (disjoint_pair env ~v ~shape a b)) all
    in
    if failing = [] then Independent
    else
      let reduction =
        match writes with
        | { ac_accum = Some op; _ } :: _
          when reads = []
               && List.for_all (fun w -> w.ac_accum = Some op) writes ->
            Some op
        | _ -> None
      in
      match reduction with
      | Some op -> Reduction op
      | None -> (
          match
            match (lo_v, hi_v) with
            | Some lo, Some hi -> find_witness ~v ~numel ~lo_v:lo ~hi_v:hi failing
            | _ -> None
          with
          | Some w -> Conflicting w
          | None ->
              let a, b = List.hd failing in
              Unknown
                (Printf.sprintf
                   "cannot separate `%s' from `%s' across iterations of `%s'"
                   (stmt_head a.ac_stmt) (stmt_head b.ac_stmt) v))

let analyze_loop ?(env = Ir_bounds.empty_env) ~shape_of (l : loop) =
  let v = l.var in
  let accesses, externs = collect_accesses l in
  let buffers =
    List.fold_left
      (fun m a -> Smap.add a.ac_buf (a :: Option.value ~default:[] (Smap.find_opt a.ac_buf m)) m)
      Smap.empty accesses
  in
  let extern_bufs =
    List.fold_left
      (fun m (e : extern_call) ->
        List.fold_left (fun m b -> Smap.add b e m) m (e.reads @ e.writes))
      Smap.empty externs
  in
  let trip =
    Ir_bounds.range env (simplify_iexpr (Isub (l.hi, l.lo)))
  in
  let single_iteration =
    match trip.Ir_bounds.hi with
    | Ir_bounds.Fin t -> t <= 1
    | _ -> false
  in
  let kiv =
    match trip.Ir_bounds.hi with
    | Ir_bounds.Fin t -> Ir_bounds.interval 1 (t - 1)
    | _ -> { Ir_bounds.lo = Ir_bounds.Fin 1; hi = Ir_bounds.Pos_inf }
  in
  let env' =
    env |> Ir_bounds.bind_range v ~lo:l.lo ~hi:l.hi |> Ir_bounds.bind kvar kiv
  in
  let lo_v = Ir_analysis.const_value l.lo
  and hi_v = Ir_analysis.const_value l.hi in
  let verdict_of buf accs =
    match Smap.find_opt buf extern_bufs with
    | Some (e : extern_call) -> (
        match e.item_var with
        | Some iv when String.equal iv v && accs = [] ->
            (* The extern contract: work is partitioned along the
               declared item axis, so per-iteration footprints are
               disjoint by declaration. *)
            Independent
        | Some iv when String.equal iv v ->
            Unknown
              (Printf.sprintf
                 "buffer is shared between extern `%s' and loop statements" e.name)
        | _ ->
            Unknown
              (Printf.sprintf "extern `%s' is not partitioned by `%s'" e.name v))
    | None ->
        if single_iteration then Independent
        else classify env' ~v ~shape:(shape_of buf) ~lo_v ~hi_v accs
  in
  let names =
    List.sort_uniq String.compare
      (List.map fst (Smap.bindings buffers) @ List.map fst (Smap.bindings extern_bufs))
  in
  List.map
    (fun buf ->
      let accs = Option.value ~default:[] (Smap.find_opt buf buffers) in
      { bv_buf = buf; bv_verdict = verdict_of buf (List.rev accs) })
    names

let analyze_stmts ?(env = Ir_bounds.empty_env) ~shape_of stmts =
  let reports = ref [] in
  let rec go env s =
    match s with
    | For l ->
        if l.parallel then
          reports :=
            { lr_var = l.var; lr_verdicts = analyze_loop ~env ~shape_of l }
            :: !reports;
        let env' = Ir_bounds.bind_range l.var ~lo:l.lo ~hi:l.hi env in
        List.iter (go env') l.body
    | If (c, t, e) ->
        List.iter (go (Ir_bounds.assume c env)) t;
        List.iter (go (Ir_bounds.assume_not c env)) e
    | Store _ | Accum _ | Memset _ | Gemm _ | Extern _ | Fusion_barrier _ -> ()
  in
  List.iter (go env) stmts;
  List.rev !reports

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let report_table sections =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-40s %-10s %-28s %s\n" "section" "loop" "buffer" "verdict");
  List.iter
    (fun (section, reports) ->
      List.iter
        (fun r ->
          List.iter
            (fun bv ->
              let verdict, detail =
                match bv.bv_verdict with
                | Conflicting w ->
                    ( "CONFLICT",
                      Some
                        (Printf.sprintf "    %s\n      between: %s\n      and:     %s"
                           (witness_to_string w) w.wit_stmt_a w.wit_stmt_b) )
                | v -> (verdict_to_string v, None)
              in
              Buffer.add_string buf
                (Printf.sprintf "%-40s %-10s %-28s %s\n" section r.lr_var
                   bv.bv_buf verdict);
              Option.iter
                (fun d -> Buffer.add_string buf (d ^ "\n"))
                detail)
            r.lr_verdicts)
        reports)
    sections;
  Buffer.contents buf
