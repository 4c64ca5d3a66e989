type iexpr =
  | Iconst of int
  | Ivar of string
  | Iadd of iexpr * iexpr
  | Isub of iexpr * iexpr
  | Imul of iexpr * iexpr
  | Idiv of iexpr * iexpr
  | Imod of iexpr * iexpr
  | Imin of iexpr * iexpr
  | Imax of iexpr * iexpr

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type funop = Neg | Exp | Log | Sqrt | Tanh | Sigmoid | Abs

type fbinop = Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax

type fexpr =
  | Fconst of float
  | Load of string * iexpr list
  | Float_of_int of iexpr
  | Funop of funop * fexpr
  | Fbinop of fbinop * fexpr * fexpr
  | Select of cond * fexpr * fexpr

and cond =
  | Icmp of cmp * iexpr * iexpr
  | Fcmp of cmp * fexpr * fexpr
  | Cand of cond * cond
  | Cor of cond * cond
  | Cnot of cond

type accum_op = Acc_sum | Acc_max

type tile_meta = { tile_size : int; dep_distance : int }

type stmt =
  | Store of { buf : string; idx : iexpr list; value : fexpr }
  | Accum of { op : accum_op; buf : string; idx : iexpr list; value : fexpr }
  | For of loop
  | If of cond * stmt list * stmt list
  | Memset of { buf : string; value : float }
  | Gemm of gemm
  | Fusion_barrier of string
  | Extern of extern_call

and loop = {
  var : string;
  lo : iexpr;
  hi : iexpr;
  body : stmt list;
  parallel : bool;
  tile : tile_meta option;
  vectorize : bool;
}

and gemm = {
  transa : bool;
  transb : bool;
  m : iexpr;
  n : iexpr;
  k : iexpr;
  a : string;
  off_a : iexpr;
  b : string;
  off_b : iexpr;
  c : string;
  off_c : iexpr;
  alpha : float;
  beta : float;
  gemm_tile : gemm_tile option;
}

and gemm_tile = {
  role : tile_role;
  rows_per_y : int;
  y_extent : int;
}

and tile_role =
  | Rows_m
  | Rows_k

and extern_call = {
  name : string;
  reads : string list;
  writes : string list;
  item_var : string option;
  run : lookup:(string -> Tensor.t) -> item:int -> unit;
}

let int_ n = Iconst n
let var v = Ivar v
let f x = Fconst x

module Infix = struct
  let ( +! ) a b = Iadd (a, b)
  let ( -! ) a b = Isub (a, b)
  let ( *! ) a b = Imul (a, b)
  let ( +.. ) a b = Fbinop (Fadd, a, b)
  let ( -.. ) a b = Fbinop (Fsub, a, b)
  let ( *.. ) a b = Fbinop (Fmul, a, b)
  let ( /.. ) a b = Fbinop (Fdiv, a, b)
end

let load buf idx = Load (buf, idx)
let store buf idx value = Store { buf; idx; value }
let accum buf idx value = Accum { op = Acc_sum; buf; idx; value }
let accum_max buf idx value = Accum { op = Acc_max; buf; idx; value }

let loop ?(parallel = false) ?tile ?(vectorize = false) var lo hi body =
  For { var; lo; hi; body; parallel; tile; vectorize }

let rec simplify_iexpr e =
  match e with
  | Iconst _ | Ivar _ -> e
  | Iadd (a, b) -> (
      match (simplify_iexpr a, simplify_iexpr b) with
      | Iconst x, Iconst y -> Iconst (x + y)
      | Iconst 0, b' -> b'
      | a', Iconst 0 -> a'
      | a', b' -> Iadd (a', b'))
  | Isub (a, b) -> (
      match (simplify_iexpr a, simplify_iexpr b) with
      | Iconst x, Iconst y -> Iconst (x - y)
      | a', Iconst 0 -> a'
      | a', b' -> Isub (a', b'))
  | Imul (a, b) -> (
      match (simplify_iexpr a, simplify_iexpr b) with
      | Iconst x, Iconst y -> Iconst (x * y)
      | Iconst 0, _ | _, Iconst 0 -> Iconst 0
      | Iconst 1, b' -> b'
      | a', Iconst 1 -> a'
      | a', b' -> Imul (a', b'))
  | Idiv (a, b) -> (
      match (simplify_iexpr a, simplify_iexpr b) with
      | Iconst x, Iconst y when y <> 0 -> Iconst (x / y)
      | a', Iconst 1 -> a'
      | a', b' -> Idiv (a', b'))
  | Imod (a, b) -> (
      match (simplify_iexpr a, simplify_iexpr b) with
      | Iconst x, Iconst y when y <> 0 -> Iconst (x mod y)
      | _, Iconst 1 -> Iconst 0
      | a', b' -> Imod (a', b'))
  | Imin (a, b) -> (
      match (simplify_iexpr a, simplify_iexpr b) with
      | Iconst x, Iconst y -> Iconst (min x y)
      | a', b' when a' = b' -> a'
      | a', b' -> Imin (a', b'))
  | Imax (a, b) -> (
      match (simplify_iexpr a, simplify_iexpr b) with
      | Iconst x, Iconst y -> Iconst (max x y)
      | a', b' when a' = b' -> a'
      | a', b' -> Imax (a', b'))

let rec simplify_fexpr e =
  match e with
  | Fconst _ -> e
  | Load (b, idx) -> Load (b, List.map simplify_iexpr idx)
  | Float_of_int a -> (
      match simplify_iexpr a with
      | Iconst n -> Fconst (float_of_int n)
      | a' -> Float_of_int a')
  | Funop (op, a) -> Funop (op, simplify_fexpr a)
  | Fbinop (op, a, b) -> (
      match (op, simplify_fexpr a, simplify_fexpr b) with
      | Fadd, Fconst 0.0, b' -> b'
      | Fadd, a', Fconst 0.0 -> a'
      | Fmul, Fconst 1.0, b' -> b'
      | Fmul, a', Fconst 1.0 -> a'
      | op', a', b' -> Fbinop (op', a', b'))
  | Select (c, a, b) -> Select (simplify_cond c, simplify_fexpr a, simplify_fexpr b)

and simplify_cond c =
  match c with
  | Icmp (op, a, b) -> Icmp (op, simplify_iexpr a, simplify_iexpr b)
  | Fcmp (op, a, b) -> Fcmp (op, simplify_fexpr a, simplify_fexpr b)
  | Cand (a, b) -> Cand (simplify_cond a, simplify_cond b)
  | Cor (a, b) -> Cor (simplify_cond a, simplify_cond b)
  | Cnot a -> Cnot (simplify_cond a)

let rec simplify_stmt s =
  match s with
  | Store { buf; idx; value } ->
      Some (Store { buf; idx = List.map simplify_iexpr idx; value = simplify_fexpr value })
  | Accum { op; buf; idx; value } ->
      Some (Accum { op; buf; idx = List.map simplify_iexpr idx; value = simplify_fexpr value })
  | For l -> (
      let body = simplify_stmts l.body in
      let lo = simplify_iexpr l.lo and hi = simplify_iexpr l.hi in
      match (body, lo, hi) with
      | [], _, _ -> None
      | _, Iconst a, Iconst b when a >= b -> None
      | _ -> Some (For { l with lo; hi; body }))
  | If (c, t, e) -> (
      match (simplify_stmts t, simplify_stmts e) with
      | [], [] -> None
      | t', e' -> Some (If (simplify_cond c, t', e')))
  | Memset _ | Fusion_barrier _ | Extern _ -> Some s
  | Gemm g ->
      Some
        (Gemm
           {
             g with
             m = simplify_iexpr g.m;
             n = simplify_iexpr g.n;
             k = simplify_iexpr g.k;
             off_a = simplify_iexpr g.off_a;
             off_b = simplify_iexpr g.off_b;
             off_c = simplify_iexpr g.off_c;
           })

and simplify_stmts ss = List.filter_map simplify_stmt ss

let rec subst_iexpr v e t =
  let s = subst_iexpr v e in
  match t with
  | Iconst _ -> t
  | Ivar v' -> if String.equal v v' then e else t
  | Iadd (a, b) -> Iadd (s a, s b)
  | Isub (a, b) -> Isub (s a, s b)
  | Imul (a, b) -> Imul (s a, s b)
  | Idiv (a, b) -> Idiv (s a, s b)
  | Imod (a, b) -> Imod (s a, s b)
  | Imin (a, b) -> Imin (s a, s b)
  | Imax (a, b) -> Imax (s a, s b)

let rec subst_fexpr v e t =
  let sf = subst_fexpr v e and si = subst_iexpr v e in
  match t with
  | Fconst _ -> t
  | Load (b, idx) -> Load (b, List.map si idx)
  | Float_of_int a -> Float_of_int (si a)
  | Funop (op, a) -> Funop (op, sf a)
  | Fbinop (op, a, b) -> Fbinop (op, sf a, sf b)
  | Select (c, a, b) -> Select (subst_cond v e c, sf a, sf b)

and subst_cond v e c =
  let sf = subst_fexpr v e and si = subst_iexpr v e in
  match c with
  | Icmp (op, a, b) -> Icmp (op, si a, si b)
  | Fcmp (op, a, b) -> Fcmp (op, sf a, sf b)
  | Cand (a, b) -> Cand (subst_cond v e a, subst_cond v e b)
  | Cor (a, b) -> Cor (subst_cond v e a, subst_cond v e b)
  | Cnot a -> Cnot (subst_cond v e a)

let rec subst_stmt v e s =
  let si = subst_iexpr v e and sf = subst_fexpr v e in
  match s with
  | Store { buf; idx; value } -> Store { buf; idx = List.map si idx; value = sf value }
  | Accum { op; buf; idx; value } ->
      Accum { op; buf; idx = List.map si idx; value = sf value }
  | For l ->
      (* Substitution stops at shadowing binders. *)
      if String.equal l.var v then For { l with lo = si l.lo; hi = si l.hi }
      else
        For
          {
            l with
            lo = si l.lo;
            hi = si l.hi;
            body = List.map (subst_stmt v e) l.body;
          }
  | If (c, t, el) ->
      If (subst_cond v e c, List.map (subst_stmt v e) t, List.map (subst_stmt v e) el)
  | Memset _ | Fusion_barrier _ | Extern _ -> s
  | Gemm g ->
      Gemm
        {
          g with
          m = si g.m;
          n = si g.n;
          k = si g.k;
          off_a = si g.off_a;
          off_b = si g.off_b;
          off_c = si g.off_c;
        }

let rec map_stmt f s =
  let s' =
    match s with
    | For l -> For { l with body = map_stmts f l.body }
    | If (c, t, e) -> If (c, map_stmts f t, map_stmts f e)
    | Store _ | Accum _ | Memset _ | Gemm _ | Fusion_barrier _ | Extern _ -> s
  in
  f s'

and map_stmts f ss = List.map (map_stmt f) ss

let rec loads_into acc e =
  match e with
  | Fconst _ | Float_of_int _ -> acc
  | Load (b, idx) -> (b, idx) :: acc
  | Funop (_, a) -> loads_into acc a
  | Fbinop (_, a, b) -> loads_into (loads_into acc a) b
  | Select (c, a, b) -> loads_into (loads_into (cond_loads_into acc c) a) b

and cond_loads_into acc c =
  match c with
  | Icmp _ -> acc
  | Fcmp (_, a, b) -> loads_into (loads_into acc a) b
  | Cand (a, b) | Cor (a, b) -> cond_loads_into (cond_loads_into acc a) b
  | Cnot a -> cond_loads_into acc a

let loads e = loads_into [] e
let cond_loads c = cond_loads_into [] c

let collect_buffers ~want_writes ss =
  let acc = Hashtbl.create 16 in
  let add b = Hashtbl.replace acc b () in
  let go_f e = if not want_writes then List.iter (fun (b, _) -> add b) (loads e) in
  let go_c c = if not want_writes then List.iter (fun (b, _) -> add b) (cond_loads c) in
  let rec go_s s =
    match s with
    | Store { buf; value; _ } ->
        if want_writes then add buf;
        go_f value
    | Accum { buf; value; _ } ->
        (* An accumulation both reads and writes its target. *)
        add buf;
        go_f value
    | For l -> List.iter go_s l.body
    | If (c, t, e) -> go_c c; List.iter go_s t; List.iter go_s e
    | Memset { buf; _ } -> if want_writes then add buf
    | Gemm g ->
        if want_writes then add g.c
        else begin
          add g.a;
          add g.b;
          if g.beta <> 0.0 then add g.c
        end
    | Fusion_barrier _ -> ()
    | Extern e -> List.iter add (if want_writes then e.writes else e.reads)
  in
  List.iter go_s ss;
  List.sort_uniq String.compare (Hashtbl.fold (fun k () l -> k :: l) acc [])

let buffers_read ss = collect_buffers ~want_writes:false ss
let buffers_written ss = collect_buffers ~want_writes:true ss

let rename_vars ~suffix s =
  let rec go s =
    match s with
    | For l ->
        let v' = l.var ^ suffix in
        let body = List.map go l.body in
        let body = List.map (subst_stmt l.var (Ivar v')) body in
        For { l with var = v'; body }
    | If (c, t, e) -> If (c, List.map go t, List.map go e)
    | Store _ | Accum _ | Memset _ | Gemm _ | Fusion_barrier _ | Extern _ -> s
  in
  go s
