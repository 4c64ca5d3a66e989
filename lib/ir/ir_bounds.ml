open Ir

(* ------------------------------------------------------------------ *)
(* Intervals over Z ∪ {±∞}                                             *)
(* ------------------------------------------------------------------ *)

type bound = Neg_inf | Fin of int | Pos_inf
type interval = { lo : bound; hi : bound }

let top = { lo = Neg_inf; hi = Pos_inf }
let interval a b = { lo = Fin a; hi = Fin b }
let point n = interval n n

let bcmp a b =
  match (a, b) with
  | Neg_inf, Neg_inf | Pos_inf, Pos_inf -> 0
  | Neg_inf, _ -> -1
  | _, Neg_inf -> 1
  | Pos_inf, _ -> 1
  | _, Pos_inf -> -1
  | Fin x, Fin y -> compare x y

let bmin a b = if bcmp a b <= 0 then a else b
let bmax a b = if bcmp a b >= 0 then a else b
let is_empty iv = bcmp iv.lo iv.hi > 0

(* [inf] resolves the (only directionally meaningful) -∞ + +∞ case. *)
let badd ~inf a b =
  match (a, b) with
  | Fin x, Fin y -> Fin (x + y)
  | Neg_inf, Pos_inf | Pos_inf, Neg_inf -> inf
  | Neg_inf, _ | _, Neg_inf -> Neg_inf
  | Pos_inf, _ | _, Pos_inf -> Pos_inf

let bpred = function Fin n -> Fin (n - 1) | b -> b
let bsucc = function Fin n -> Fin (n + 1) | b -> b

let iadd a b =
  { lo = badd ~inf:Neg_inf a.lo b.lo; hi = badd ~inf:Pos_inf a.hi b.hi }

let bscale c b =
  if c = 0 then Fin 0
  else
    match b with
    | Fin x -> Fin (c * x)
    | Neg_inf -> if c > 0 then Neg_inf else Pos_inf
    | Pos_inf -> if c > 0 then Pos_inf else Neg_inf

let iscale c iv =
  if c >= 0 then { lo = bscale c iv.lo; hi = bscale c iv.hi }
  else { lo = bscale c iv.hi; hi = bscale c iv.lo }

let bsign = function Neg_inf -> -1 | Pos_inf -> 1 | Fin x -> compare x 0

let bmul a b =
  match (a, b) with
  | Fin x, Fin y -> Fin (x * y)
  | _ ->
      (* 0·∞ = 0 is sound for endpoint products: every concrete value in
         the interval is finite. *)
      let s = bsign a * bsign b in
      if s = 0 then Fin 0 else if s > 0 then Pos_inf else Neg_inf

let imul a b =
  if is_empty a then a
  else if is_empty b then b
  else
    let cs = [ bmul a.lo b.lo; bmul a.lo b.hi; bmul a.hi b.lo; bmul a.hi b.hi ] in
    {
      lo = List.fold_left bmin Pos_inf cs;
      hi = List.fold_left bmax Neg_inf cs;
    }

let contains_zero iv = bcmp iv.lo (Fin 0) <= 0 && bcmp iv.hi (Fin 0) >= 0

(* OCaml [/] truncates toward zero, which is monotone, so endpoint
   candidates bound the quotient exactly when everything is finite. *)
let idiv a b =
  if is_empty a then a
  else if is_empty b then b
  else if contains_zero b then top
  else
    match (a.lo, a.hi, b.lo, b.hi) with
    | Fin alo, Fin ahi, Fin blo, Fin bhi ->
        let cs = [ alo / blo; alo / bhi; ahi / blo; ahi / bhi ] in
        {
          lo = Fin (List.fold_left min max_int cs);
          hi = Fin (List.fold_left max min_int cs);
        }
    | _ ->
        if bcmp a.lo (Fin 0) >= 0 && bcmp b.lo (Fin 1) >= 0 then
          { lo = Fin 0; hi = a.hi }
        else top

(* OCaml [mod] takes the dividend's sign; |x mod d| < max |d|. *)
let imod a b =
  if is_empty a then a
  else if is_empty b then b
  else if contains_zero b then top
  else
    match (b.lo, b.hi) with
    | Fin blo, Fin bhi ->
        let m = max (abs blo) (abs bhi) - 1 in
        if bcmp a.lo (Fin 0) >= 0 then
          { lo = Fin 0; hi = bmin a.hi (Fin m) }
        else { lo = Fin (-m); hi = Fin m }
    | _ -> if bcmp a.lo (Fin 0) >= 0 then { lo = Fin 0; hi = a.hi } else top

let imin_iv a b =
  if is_empty a then a
  else if is_empty b then b
  else { lo = bmin a.lo b.lo; hi = bmin a.hi b.hi }

let imax_iv a b =
  if is_empty a then a
  else if is_empty b then b
  else { lo = bmax a.lo b.lo; hi = bmax a.hi b.hi }

let inter a b = { lo = bmax a.lo b.lo; hi = bmin a.hi b.hi }

let bound_to_string = function
  | Neg_inf -> "-inf"
  | Pos_inf -> "+inf"
  | Fin n -> string_of_int n

let interval_to_string iv =
  if is_empty iv then "empty"
  else
    Printf.sprintf "[%s, %s]" (bound_to_string iv.lo) (bound_to_string iv.hi)

(* ------------------------------------------------------------------ *)
(* Environment: loop-variable ranges + guard facts                     *)
(* ------------------------------------------------------------------ *)

module Smap = Map.Make (String)

(* Guard facts are keyed on (simplified) expressions with the same
   structural comparison the linear form uses, so lookups line up. *)
module Emap = Ir_linear.Emap

type env = {
  vars : interval Smap.t;
  facts : interval Emap.t;
  sym : (Ir.iexpr * Ir.iexpr) Smap.t;
      (* Loop variables with *symbolic* bounds: v ↦ (lo, hi) meaning the
         body runs with lo ≤ v ≤ hi − 1, both expressions simplified.
         This is the relational information padded convolutions need:
         d0 ≥ max(0, 1 − w0) alone proves d0 + w0 − 1 ≥ 0, which no
         per-variable interval can. *)
}

let empty_env = { vars = Smap.empty; facts = Emap.empty; sym = Smap.empty }

let bind v iv env =
  { env with vars = Smap.add v iv env.vars; sym = Smap.remove v env.sym }

(* ------------------------------------------------------------------ *)
(* Linear normal form: k + Σ coeff·atom, from the shared {!Ir_linear}.
   This is what proves tiled GEMM extents: the tiling pass emits row
   counts like ((t+1)·r − t·r)·rows_per_y whose naive interval widens
   with the tile variable, while linear cancellation reduces them to
   the exact constant. *)
(* ------------------------------------------------------------------ *)

type lin = Ir_linear.t = { k : int; terms : int Emap.t }

let lconst = Ir_linear.const
let ladd = Ir_linear.add
let lscale = Ir_linear.scale
let linearize = Ir_linear.of_iexpr

let refine env e iv =
  match Emap.find_opt e env.facts with Some f -> inter iv f | None -> iv

(* Recursion budget for the relational tightening below. Each unit of
   fuel distributes one min/max atom (two subproblems) or substitutes
   one loop variable's symbolic bound; synthesized clamp expressions
   nest two or three deep, so this is ample while still hard-capping
   pathological inputs. *)
let max_fuel = 10

(* [lin_range] expects linear forms built from already-simplified
   expressions; atoms are subtrees of a simplified expression and guard
   facts are keyed on simplified operands, so structural lookups line
   up. Beyond the plain interval sum it applies two tightenings, each
   intersected with the base (every rule is sound, so intersection is):

   - min/max distribution, which is exact:
       c·max(x, y) + R = max(c·x + R, c·y + R)   (c > 0; min for c < 0)
     and crucially re-linearizes x and y against R, so correlated terms
     cancel — max(0, 1 − w) + w − 1 has lower bound 0, not −1.

   - symbolic loop-bound substitution: for a variable v with body range
     lo ≤ v ≤ hi − 1 and coefficient c > 0,
       lb(c·v + R) ≥ lb(c·lo + R)   and   ub(c·v + R) ≤ ub(c·(hi−1) + R)
     pointwise (R is evaluated at the same valuation), which feeds the
     clamped conv window bounds max(0, 1−w) / min(extent, …−w) into the
     very expression they guard. Every eligible variable's candidate is
     intersected, so substitution order cannot lose the provable one. *)
let rec lin_range env fuel (l : lin) =
  let base =
    Emap.fold
      (fun atom coeff acc -> iadd acc (iscale coeff (atom_range env fuel atom)))
      l.terms (point l.k)
  in
  if fuel <= 0 || Emap.is_empty l.terms then base
  else
    let minmax =
      Emap.fold
        (fun atom c acc ->
          match (acc, atom) with
          | None, (Imin (x, y) | Imax (x, y)) -> Some (atom, c, x, y)
          | _ -> acc)
        l.terms None
    in
    match minmax with
    | Some (atom, c, x, y) ->
        let rest = { l with terms = Emap.remove atom l.terms } in
        let half e = ladd rest (lscale c (linearize (simplify_iexpr e))) in
        let r1 = lin_range env (fuel - 1) (half x)
        and r2 = lin_range env (fuel - 1) (half y) in
        let is_max = match atom with Imax _ -> c > 0 | _ -> c < 0 in
        let dist =
          if is_max then { lo = bmax r1.lo r2.lo; hi = bmax r1.hi r2.hi }
          else { lo = bmin r1.lo r2.lo; hi = bmin r1.hi r2.hi }
        in
        inter base dist
    | None ->
        Emap.fold
          (fun atom c acc ->
            match atom with
            | Idiv (x, Iconst b) when b > 0 && c mod b = 0 ->
                (* Truncating division against a positive constant:
                   x − b + 1 ≤ b·(x/b) ≤ x + b − 1 (toward-zero rounds
                   up for negative x, down for positive — both within
                   b−1 of x/b exact). When b divides the coefficient
                   this stays linear in x, so a strided window clamp
                   like s·((p − w)/s) cancels against s·d + w − p. *)
                let q = c / b in
                let slack = abs q * (b - 1) in
                let rest = { l with terms = Emap.remove atom l.terms } in
                let shifted ofs =
                  ladd rest (ladd (lconst ofs) (lscale q (linearize x)))
                in
                let rlo = lin_range env (fuel - 1) (shifted (-slack))
                and rhi = lin_range env (fuel - 1) (shifted slack) in
                inter acc { lo = rlo.lo; hi = rhi.hi }
            | Ivar v -> (
                match Smap.find_opt v env.sym with
                | None -> acc
                | Some (lo_e, hi_e) ->
                    (* Drop v's own binding while ranging the
                       substituted forms: its bounds only reference
                       outer variables in well-formed IR, and this makes
                       even cyclic (malformed) bounds harmless. *)
                    let env' = { env with sym = Smap.remove v env.sym } in
                    let rest = { l with terms = Emap.remove atom l.terms } in
                    let lo_l = ladd rest (lscale c (linearize lo_e)) in
                    let hi_l =
                      ladd rest (ladd (lconst (-c)) (lscale c (linearize hi_e)))
                    in
                    let rlo = lin_range env' (fuel - 1) lo_l
                    and rhi = lin_range env' (fuel - 1) hi_l in
                    let cand =
                      if c > 0 then { lo = rlo.lo; hi = rhi.hi }
                      else { lo = rhi.lo; hi = rlo.hi }
                    in
                    inter acc cand)
            | _ -> acc)
          l.terms base

and atom_range env fuel a =
  let base =
    match a with
    | Iconst n -> point n
    | Ivar v -> (
        match Smap.find_opt v env.vars with Some iv -> iv | None -> top)
    | Imin (x, y) -> imin_iv (ranged env fuel x) (ranged env fuel y)
    | Imax (x, y) -> imax_iv (ranged env fuel x) (ranged env fuel y)
    | Idiv (x, y) -> idiv (ranged env fuel x) (ranged env fuel y)
    | Imod (x, y) -> imod (ranged env fuel x) (ranged env fuel y)
    | Imul (x, y) -> imul (ranged env fuel x) (ranged env fuel y)
    | Iadd _ | Isub _ -> top (* unreachable: linearize decomposes these *)
  in
  refine env a base

and ranged env fuel e = refine env e (lin_range env fuel (linearize e))

let range env e = ranged env max_fuel (simplify_iexpr e)

let loop_interval env ~lo ~hi =
  let rlo = range env lo and rhi = range env hi in
  { lo = rlo.lo; hi = bpred rhi.hi }

let bind_range v ~lo ~hi env =
  let iv = loop_interval env ~lo ~hi in
  {
    env with
    vars = Smap.add v iv env.vars;
    sym = Smap.add v (simplify_iexpr lo, simplify_iexpr hi) env.sym;
  }

(* ---- guard facts from conditions ---------------------------------- *)

let neg_cmp = function
  | Ceq -> Cne
  | Cne -> Ceq
  | Clt -> Cge
  | Cge -> Clt
  | Cle -> Cgt
  | Cgt -> Cle

(* Comparisons known to hold when the condition evaluates to [pos]:
   conjunctions distribute in positive polarity, disjunctions in
   negative (¬(a ∨ b) = ¬a ∧ ¬b); anything else yields no facts. *)
let rec icmp_facts pos c acc =
  match c with
  | Cand (a, b) -> if pos then icmp_facts pos a (icmp_facts pos b acc) else acc
  | Cor (a, b) -> if pos then acc else icmp_facts pos a (icmp_facts pos b acc)
  | Cnot a -> icmp_facts (not pos) a acc
  | Icmp (op, a, b) -> ((if pos then op else neg_cmp op), a, b) :: acc
  | Fcmp _ -> acc

let add_fact env (op, a, b) =
  let a = simplify_iexpr a and b = simplify_iexpr b in
  let refine_key key constr env =
    match key with
    | Iconst _ -> env
    | _ ->
        let cur = Option.value ~default:top (Emap.find_opt key env.facts) in
        { env with facts = Emap.add key (inter cur constr) env.facts }
  in
  let ra = ranged env max_fuel a and rb = ranged env max_fuel b in
  let ca =
    match op with
    | Clt -> { lo = Neg_inf; hi = bpred rb.hi }
    | Cle -> { lo = Neg_inf; hi = rb.hi }
    | Cgt -> { lo = bsucc rb.lo; hi = Pos_inf }
    | Cge -> { lo = rb.lo; hi = Pos_inf }
    | Ceq -> rb
    | Cne -> top
  and cb =
    match op with
    | Clt -> { lo = bsucc ra.lo; hi = Pos_inf }
    | Cle -> { lo = ra.lo; hi = Pos_inf }
    | Cgt -> { lo = Neg_inf; hi = bpred ra.hi }
    | Cge -> { lo = Neg_inf; hi = ra.hi }
    | Ceq -> ra
    | Cne -> top
  in
  env |> refine_key a ca |> refine_key b cb

let assume c env = List.fold_left add_fact env (icmp_facts true c [])
let assume_not c env = List.fold_left add_fact env (icmp_facts false c [])

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

type kind =
  | Out_of_bounds
  | Unproven
  | Div_by_zero
  | Use_before_init
  | Dead_store
  | Narrow_accum

type finding = {
  kind : kind;
  region : string;
  buf : string option;
  detail : string;
}

let is_fatal = function
  | Out_of_bounds | Use_before_init -> true
  | Unproven | Div_by_zero | Dead_store | Narrow_accum -> false

let kind_to_string = function
  | Out_of_bounds -> "out-of-bounds"
  | Unproven -> "unproven"
  | Div_by_zero -> "div-by-zero"
  | Use_before_init -> "use-before-init"
  | Dead_store -> "dead-store"
  | Narrow_accum -> "narrow-accum"

let finding_to_string f =
  Printf.sprintf "[%s] %s: %s" (kind_to_string f.kind) f.region f.detail

type stats = { proven : int; guarded : int; flagged : int }

let zero_stats = { proven = 0; guarded = 0; flagged = 0 }

let add_stats a b =
  {
    proven = a.proven + b.proven;
    guarded = a.guarded + b.guarded;
    flagged = a.flagged + b.flagged;
  }

type region_report = { region : string; stats : stats; findings : finding list }

type flow = {
  physical : string -> string;
  assume_init : string list;
  live_out : string list;
}

type report = {
  region_reports : region_report list;
  flow_findings : finding list;
  totals : stats;
}

(* ------------------------------------------------------------------ *)
(* Access checking                                                     *)
(* ------------------------------------------------------------------ *)

type verdict = Proven | Guard of string | Flag of string

let dim_check env extent e =
  let r = range env e in
  if is_empty r then Proven
  else if bcmp r.lo (Fin 0) >= 0 && bcmp r.hi (Fin (extent - 1)) <= 0 then
    Proven
  else if bcmp r.lo (Fin extent) >= 0 || bcmp r.hi (Fin (-1)) <= 0 then
    Flag
      (Printf.sprintf "index range %s entirely outside [0, %d)"
         (interval_to_string r) extent)
  else
    Guard
      (Printf.sprintf "index range %s not contained in [0, %d)"
         (interval_to_string r) extent)

let access_verdict env ~shape idx =
  if List.length idx <> Array.length shape then
    Guard
      (Printf.sprintf "rank mismatch (%d indices vs rank %d)"
         (List.length idx) (Array.length shape))
  else begin
    let worst = ref Proven in
    List.iteri
      (fun k e ->
        match dim_check env shape.(k) e with
        | Proven -> ()
        | Guard d -> (
            match !worst with
            | Flag _ -> ()
            | _ -> worst := Guard (Printf.sprintf "dim %d: %s" k d))
        | Flag d -> worst := Flag (Printf.sprintf "dim %d: %s" k d))
      idx;
    !worst
  end

let access_proven env ~shape idx =
  match access_verdict env ~shape idx with
  | Proven -> true
  | Guard _ | Flag _ -> false

(* GEMM operands address the packed span [off, off + rows·cols) of a
   flat buffer (Blas.gemm has no leading-dimension parameters).
   Definite-OOB is never claimed here: a zero row/column count makes
   any offset harmless. *)
let gemm_operands (g : gemm) =
  [
    ("A", g.a, g.off_a, Imul (g.m, g.k));
    ("B", g.b, g.off_b, Imul (g.k, g.n));
    ("C", g.c, g.off_c, Imul (g.m, g.n));
  ]

let gemm_span_verdict env ~shape_of (name, buf, off, count) =
  match shape_of buf with
  | None -> Guard (Printf.sprintf "gemm operand %s: buffer %s has no planned shape" name buf)
  | Some shape ->
      let numel = Array.fold_left ( * ) 1 shape in
      let roff = range env off in
      (* Building the combined end expression (rather than adding two
         intervals) lets correlated offset/extent terms cancel in the
         linear form. *)
      let rend = range env (Iadd (off, count)) in
      if is_empty roff then Proven
      else if bcmp roff.lo (Fin 0) >= 0 && bcmp rend.hi (Fin numel) <= 0 then
        Proven
      else
        Guard
          (Printf.sprintf
             "gemm operand %s: buffer %s span start %s end %s not contained \
              in [0, %d]"
             name buf (interval_to_string roff) (interval_to_string rend) numel)

let gemm_proven env ~shape_of g =
  List.for_all
    (fun op ->
      match gemm_span_verdict env ~shape_of op with
      | Proven -> true
      | Guard _ | Flag _ -> false)
    (gemm_operands g)

let check_gemm_spans (g : gemm) ~m ~n ~k ~off_a ~off_b ~off_c ~extent_a
    ~extent_b ~extent_c =
  let check what buf off len extent =
    if off < 0 || len < 0 || off + len > extent then
      invalid_arg
        (Printf.sprintf
           "latte: out-of-bounds gemm operand %s: buffer %s span [%d, %d) \
            outside extent [0, %d)"
           what buf off (off + len) extent)
  in
  check "A" g.a off_a (m * k) extent_a;
  check "B" g.b off_b (k * n) extent_b;
  check "C" g.c off_c (m * n) extent_c

(* ---- region walk -------------------------------------------------- *)

type acc = {
  mutable proven : int;
  mutable guarded : int;
  mutable flagged : int;
  mutable findings : finding list;
}

type cctx = {
  region : string;
  shape_of : string -> int array option;
  acc : acc;
}

let add_finding cx kind buf detail =
  cx.acc.findings <- { kind; region = cx.region; buf; detail } :: cx.acc.findings

let rec check_div cx env e =
  match e with
  | Iconst _ | Ivar _ -> ()
  | Iadd (a, b) | Isub (a, b) | Imul (a, b) | Imin (a, b) | Imax (a, b) ->
      check_div cx env a;
      check_div cx env b
  | Idiv (a, b) | Imod (a, b) ->
      check_div cx env a;
      check_div cx env b;
      let r = range env b in
      if (not (is_empty r)) && contains_zero r then
        add_finding cx Div_by_zero None
          (Printf.sprintf "divisor range %s may be zero in %s"
             (interval_to_string r)
             (Ir_printer.iexpr_to_string e))

let check_access cx env ~what buf idx =
  List.iter (check_div cx env) idx;
  match cx.shape_of buf with
  | None ->
      cx.acc.guarded <- cx.acc.guarded + 1;
      add_finding cx Unproven (Some buf)
        (Printf.sprintf "%s of %s: buffer has no planned shape" what buf)
  | Some shape -> (
      match access_verdict env ~shape idx with
      | Proven -> cx.acc.proven <- cx.acc.proven + 1
      | Guard d ->
          cx.acc.guarded <- cx.acc.guarded + 1;
          add_finding cx Unproven (Some buf)
            (Printf.sprintf "%s of %s: %s" what buf d)
      | Flag d ->
          cx.acc.flagged <- cx.acc.flagged + 1;
          add_finding cx Out_of_bounds (Some buf)
            (Printf.sprintf "%s of %s: %s" what buf d))

let rec walk_f cx env e =
  match e with
  | Fconst _ -> ()
  | Float_of_int a -> check_div cx env a
  | Load (buf, idx) -> check_access cx env ~what:"load" buf idx
  | Funop (_, a) -> walk_f cx env a
  | Fbinop (_, a, b) ->
      walk_f cx env a;
      walk_f cx env b
  | Select (c, a, b) ->
      walk_c cx env c;
      walk_f cx (assume c env) a;
      walk_f cx (assume_not c env) b

and walk_c cx env c =
  match c with
  | Icmp (_, a, b) ->
      check_div cx env a;
      check_div cx env b
  | Fcmp (_, a, b) ->
      walk_f cx env a;
      walk_f cx env b
  | Cand (a, b) | Cor (a, b) ->
      walk_c cx env a;
      walk_c cx env b
  | Cnot a -> walk_c cx env a

let rec walk_stmt cx env s =
  match s with
  | Store { buf; idx; value } ->
      check_access cx env ~what:"store" buf idx;
      walk_f cx env value
  | Accum { buf; idx; value; _ } ->
      check_access cx env ~what:"accumulate" buf idx;
      walk_f cx env value
  | Memset _ | Fusion_barrier _ -> ()
  | Extern e ->
      List.iter
        (fun b ->
          match cx.shape_of b with
          | Some _ -> cx.acc.proven <- cx.acc.proven + 1
          | None ->
              cx.acc.guarded <- cx.acc.guarded + 1;
              add_finding cx Unproven (Some b)
                (Printf.sprintf "extern %s: buffer %s has no planned shape"
                   e.name b))
        (e.reads @ e.writes)
  | Gemm g ->
      List.iter (check_div cx env) [ g.m; g.n; g.k; g.off_a; g.off_b; g.off_c ];
      List.iter
        (fun ((_, buf, _, _) as op) ->
          match gemm_span_verdict env ~shape_of:cx.shape_of op with
          | Proven -> cx.acc.proven <- cx.acc.proven + 1
          | Guard d | Flag d ->
              cx.acc.guarded <- cx.acc.guarded + 1;
              add_finding cx Unproven (Some buf) d)
        (gemm_operands g)
  | If (c, t, e) ->
      walk_c cx env c;
      walk_stmts cx (assume c env) t;
      walk_stmts cx (assume_not c env) e
  | For l ->
      check_div cx env l.lo;
      check_div cx env l.hi;
      let vi = loop_interval env ~lo:l.lo ~hi:l.hi in
      if not (is_empty vi) then
        walk_stmts cx (bind_range l.var ~lo:l.lo ~hi:l.hi env) l.body

and walk_stmts cx env ss = List.iter (walk_stmt cx env) ss

let fresh_acc () = { proven = 0; guarded = 0; flagged = 0; findings = [] }

let stmt_proven env ~shape_of s =
  let cx = { region = ""; shape_of; acc = fresh_acc () } in
  walk_stmt cx env s;
  cx.acc.guarded = 0 && cx.acc.flagged = 0

(* ------------------------------------------------------------------ *)
(* Flow checks: def-before-use and dead stores over physical buffers,  *)
(* in section order                                                    *)
(* ------------------------------------------------------------------ *)

let flow_check (fl : flow) regions =
  let defined = Hashtbl.create 64 in
  let read = Hashtbl.create 64 in
  let reported = Hashtbl.create 8 in
  let written = Hashtbl.create 64 in
  let extern_written = Hashtbl.create 8 in
  let writes = ref [] in
  let findings = ref [] in
  List.iter (fun b -> Hashtbl.replace defined (fl.physical b) ()) fl.assume_init;
  let note_read region b =
    let p = fl.physical b in
    Hashtbl.replace read p ();
    if (not (Hashtbl.mem defined p)) && not (Hashtbl.mem reported p) then begin
      Hashtbl.replace reported p ();
      findings :=
        {
          kind = Use_before_init;
          region;
          buf = Some b;
          detail =
            Printf.sprintf
              "buffer %s is read with no earlier overwrite in section order" b;
        }
        :: !findings
    end
  in
  let note_def b = Hashtbl.replace defined (fl.physical b) () in
  let note_write region b =
    let p = fl.physical b in
    if not (Hashtbl.mem written p) then begin
      Hashtbl.replace written p ();
      writes := (p, b, region) :: !writes
    end;
    note_def b
  in
  let rec reads_f region e =
    match e with
    | Fconst _ | Float_of_int _ -> ()
    | Load (b, _) -> note_read region b
    | Funop (_, a) -> reads_f region a
    | Fbinop (_, a, b) ->
        reads_f region a;
        reads_f region b
    | Select (c, a, b) ->
        reads_c region c;
        reads_f region a;
        reads_f region b
  and reads_c region c =
    match c with
    | Icmp _ -> ()
    | Fcmp (_, a, b) ->
        reads_f region a;
        reads_f region b
    | Cand (a, b) | Cor (a, b) ->
        reads_c region a;
        reads_c region b
    | Cnot a -> reads_c region a
  in
  let rec walk region s =
    match s with
    | Store { buf; value; _ } ->
        reads_f region value;
        note_write region buf
    | Accum { buf; value; _ } ->
        reads_f region value;
        note_read region buf;
        note_write region buf
    | Memset { buf; _ } -> note_write region buf
    | Gemm g ->
        note_read region g.a;
        note_read region g.b;
        if g.beta <> 0.0 then note_read region g.c;
        note_write region g.c
    | Extern e ->
        List.iter (note_read region) e.reads;
        List.iter
          (fun b ->
            Hashtbl.replace extern_written (fl.physical b) ();
            note_def b)
          e.writes
    | If (c, t, e) ->
        reads_c region c;
        (* Optimistic: definitions from either branch count. *)
        List.iter (walk region) t;
        List.iter (walk region) e
    | For l -> List.iter (walk region) l.body
    | Fusion_barrier _ -> ()
  in
  List.iter (fun (region, _, stmts) -> List.iter (walk region) stmts) regions;
  let live = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace live (fl.physical b) ()) fl.live_out;
  let dead =
    List.filter
      (fun (p, _, _) ->
        (not (Hashtbl.mem read p))
        && (not (Hashtbl.mem live p))
        && not (Hashtbl.mem extern_written p))
      (List.rev !writes)
  in
  List.rev !findings
  @ List.map
      (fun (_, b, region) ->
        {
          kind = Dead_store;
          region;
          buf = Some b;
          detail =
            Printf.sprintf
              "buffer %s is written (first in %s) but never read and not \
               live-out"
              b region;
        })
      dead

(* ------------------------------------------------------------------ *)
(* Storage-precision lint: accumulation into sub-f32 storage           *)
(* ------------------------------------------------------------------ *)

let narrow_accum_check storage_of regions =
  (* Every [Accum] into a packed (int8) buffer decodes, adds in
     f32, then re-encodes — one rounding per partial update, so the
     error grows with the reduction depth instead of staying at half an
     ulp of the final value. Flag each such buffer once; the fix is to
     accumulate into an f32 buffer and quantize the finished result. *)
  let reported = Hashtbl.create 8 in
  let findings = ref [] in
  let note region buf =
    if not (Hashtbl.mem reported buf) then
      match storage_of buf with
      | Some (Precision.Any k as a) when Precision.bytes_per_element k < 4 ->
          Hashtbl.replace reported buf ();
          findings :=
            {
              kind = Narrow_accum;
              region;
              buf = Some buf;
              detail =
                Printf.sprintf
                  "buffer %s accumulates in %s storage: every partial \
                   update re-rounds; accumulate in f32 and quantize the \
                   result"
                  buf (Precision.any_name a);
            }
            :: !findings
      | _ -> Hashtbl.replace reported buf ()
  in
  let rec walk region s =
    match s with
    | Accum { buf; _ } -> note region buf
    | If (_, t, e) ->
        List.iter (walk region) t;
        List.iter (walk region) e
    | For l -> List.iter (walk region) l.body
    | Store _ | Memset _ | Gemm _ | Extern _ | Fusion_barrier _ -> ()
  in
  List.iter (fun (region, _, stmts) -> List.iter (walk region) stmts) regions;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let analyze ~shape_of ?flow ?storage_of regions =
  let region_reports =
    List.map
      (fun (region, bound, stmts) ->
        let env =
          List.fold_left (fun e (v, iv) -> bind v iv e) empty_env bound
        in
        let cx = { region; shape_of; acc = fresh_acc () } in
        walk_stmts cx env stmts;
        {
          region;
          stats =
            {
              proven = cx.acc.proven;
              guarded = cx.acc.guarded;
              flagged = cx.acc.flagged;
            };
          findings = List.rev cx.acc.findings;
        })
      regions
  in
  let flow_findings =
    (match flow with None -> [] | Some fl -> flow_check fl regions)
    @
    match storage_of with
    | None -> []
    | Some f -> narrow_accum_check f regions
  in
  let totals =
    List.fold_left (fun acc r -> add_stats acc r.stats) zero_stats region_reports
  in
  { region_reports; flow_findings; totals }

let all_findings rep =
  List.concat_map (fun (r : region_report) -> r.findings) rep.region_reports
  @ rep.flow_findings

let fatal_findings rep = List.filter (fun f -> is_fatal f.kind) (all_findings rep)

let summary rep =
  let t = rep.totals in
  let fatal = List.length (fatal_findings rep) in
  Printf.sprintf "%d proven, %d guarded, %d flagged%s" t.proven t.guarded
    t.flagged
    (if fatal > 0 then Printf.sprintf " (%d fatal finding(s))" fatal else "")
