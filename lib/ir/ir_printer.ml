open Ir

let cmp_to_string = function
  | Ceq -> "=="
  | Cne -> "!="
  | Clt -> "<"
  | Cle -> "<="
  | Cgt -> ">"
  | Cge -> ">="

let rec iexpr_to_string e =
  match e with
  | Iconst n -> string_of_int n
  | Ivar v -> v
  | Iadd (a, b) -> Printf.sprintf "(%s + %s)" (iexpr_to_string a) (iexpr_to_string b)
  | Isub (a, b) -> Printf.sprintf "(%s - %s)" (iexpr_to_string a) (iexpr_to_string b)
  | Imul (a, b) -> Printf.sprintf "(%s * %s)" (iexpr_to_string a) (iexpr_to_string b)
  | Idiv (a, b) -> Printf.sprintf "(%s / %s)" (iexpr_to_string a) (iexpr_to_string b)
  | Imod (a, b) -> Printf.sprintf "(%s %% %s)" (iexpr_to_string a) (iexpr_to_string b)
  | Imin (a, b) -> Printf.sprintf "min(%s, %s)" (iexpr_to_string a) (iexpr_to_string b)
  | Imax (a, b) -> Printf.sprintf "max(%s, %s)" (iexpr_to_string a) (iexpr_to_string b)

let funop_to_string = function
  | Neg -> "-"
  | Exp -> "exp"
  | Log -> "log"
  | Sqrt -> "sqrt"
  | Tanh -> "tanh"
  | Sigmoid -> "sigmoid"
  | Abs -> "abs"

let fbinop_to_string = function
  | Fadd -> "+"
  | Fsub -> "-"
  | Fmul -> "*"
  | Fdiv -> "/"
  | Fmin -> "min"
  | Fmax -> "max"

let index_to_string idx =
  "[" ^ String.concat ", " (List.map iexpr_to_string idx) ^ "]"

let rec fexpr_to_string e =
  match e with
  | Fconst x -> Printf.sprintf "%g" x
  | Load (b, idx) -> b ^ index_to_string idx
  | Float_of_int a -> Printf.sprintf "float(%s)" (iexpr_to_string a)
  | Funop (op, a) -> Printf.sprintf "%s(%s)" (funop_to_string op) (fexpr_to_string a)
  | Fbinop ((Fmin | Fmax) as op, a, b) ->
      Printf.sprintf "%s(%s, %s)" (fbinop_to_string op) (fexpr_to_string a)
        (fexpr_to_string b)
  | Fbinop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (fexpr_to_string a) (fbinop_to_string op)
        (fexpr_to_string b)
  | Select (c, a, b) ->
      Printf.sprintf "(%s ? %s : %s)" (cond_to_string c) (fexpr_to_string a)
        (fexpr_to_string b)

and cond_to_string c =
  match c with
  | Icmp (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (iexpr_to_string a) (cmp_to_string op)
        (iexpr_to_string b)
  | Fcmp (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (fexpr_to_string a) (cmp_to_string op)
        (fexpr_to_string b)
  | Cand (a, b) -> Printf.sprintf "(%s && %s)" (cond_to_string a) (cond_to_string b)
  | Cor (a, b) -> Printf.sprintf "(%s || %s)" (cond_to_string a) (cond_to_string b)
  | Cnot a -> Printf.sprintf "!%s" (cond_to_string a)

let rec pp_stmt buf indent s =
  let pad = String.make indent ' ' in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (pad ^ s ^ "\n")) fmt in
  match s with
  | Store { buf = b; idx; value } ->
      line "%s%s = %s" b (index_to_string idx) (fexpr_to_string value)
  | Accum { op = Acc_sum; buf = b; idx; value } ->
      line "%s%s += %s" b (index_to_string idx) (fexpr_to_string value)
  | Accum { op = Acc_max; buf = b; idx; value } ->
      line "%s%s max= %s" b (index_to_string idx) (fexpr_to_string value)
  | Memset { buf = b; value } -> line "memset(%s, %g)" b value
  | Fusion_barrier name -> line "# fusion barrier: %s" name
  | Extern e -> line "extern %s(reads: %s; writes: %s)" e.name
      (String.concat ", " e.reads) (String.concat ", " e.writes)
  | Gemm g ->
      line "gemm('%c', '%c', m=%s, n=%s, k=%s, %s+%s, %s+%s, %s+%s, alpha=%g, beta=%g)"
        (if g.transa then 'T' else 'N')
        (if g.transb then 'T' else 'N')
        (iexpr_to_string g.m) (iexpr_to_string g.n) (iexpr_to_string g.k) g.a
        (iexpr_to_string g.off_a) g.b (iexpr_to_string g.off_b) g.c
        (iexpr_to_string g.off_c) g.alpha g.beta
  | If (c, t, e) ->
      line "if %s {" (cond_to_string c);
      List.iter (pp_stmt buf (indent + 2)) t;
      if e <> [] then begin
        line "} else {";
        List.iter (pp_stmt buf (indent + 2)) e
      end;
      line "}"
  | For l ->
      let attrs =
        (if l.parallel then [ "parallel" ] else [])
        @ (match l.tile with
          | Some t ->
              [ Printf.sprintf "tiled(size=%d, dep=%d)" t.tile_size t.dep_distance ]
          | None -> [])
        @ if l.vectorize then [ "simd" ] else []
      in
      let attr_str = if attrs = [] then "" else " @" ^ String.concat " @" attrs in
      line "for %s = %s to %s%s {" l.var (iexpr_to_string l.lo)
        (iexpr_to_string l.hi) attr_str;
      List.iter (pp_stmt buf (indent + 2)) l.body;
      line "}"

let stmt_to_string s =
  let buf = Buffer.create 256 in
  pp_stmt buf 0 s;
  Buffer.contents buf

let stmts_to_string ss =
  let buf = Buffer.create 1024 in
  List.iter (pp_stmt buf 0) ss;
  Buffer.contents buf
