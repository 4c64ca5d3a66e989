open Ir

type env = {
  lookup : string -> Tensor.t;
      (* f32 view, used only to hand Externs their environment. *)
  store_of : string -> Tensor.store;
  vars : (string, int) Hashtbl.t;
  trace : (string -> int -> unit) option;
      (* Observation hook: called with (buffer, flattened index) for
         every element access, before the bounds check, so a dynamic
         oracle can record attempted indices even when they are out of
         bounds (the fuzz harness cross-checks Ir_bounds against it). *)
  trace_store : (string -> int -> float -> unit) option;
      (* Value hook: called with (buffer, index, decoded value) for
         every Store/Accum result — the dynamic-range oracle that
         quantization calibration and `latte analyze --ranges` read. *)
}

let eval_var env v =
  match Hashtbl.find_opt env.vars v with
  | Some n -> n
  | None -> failwith (Printf.sprintf "Ir_eval: unbound loop variable %s" v)

let rec eval_i env e =
  match e with
  | Iconst n -> n
  | Ivar v -> eval_var env v
  | Iadd (a, b) -> eval_i env a + eval_i env b
  | Isub (a, b) -> eval_i env a - eval_i env b
  | Imul (a, b) -> eval_i env a * eval_i env b
  | Idiv (a, b) -> eval_i env a / eval_i env b
  | Imod (a, b) -> eval_i env a mod eval_i env b
  | Imin (a, b) -> min (eval_i env a) (eval_i env b)
  | Imax (a, b) -> max (eval_i env a) (eval_i env b)

let flat env buf idx =
  let st = env.store_of buf in
  let shape = Tensor.store_shape st in
  let vals = Array.of_list (List.map (eval_i env) idx) in
  (match env.trace with
  | Some f ->
      (* Raw row-major flattening, without ravel's per-dimension bounds
         check, so out-of-range attempts are observable. *)
      let strides = Shape.strides shape in
      let raw = ref 0 in
      Array.iteri (fun i v -> raw := !raw + (v * strides.(i))) vals;
      f buf !raw
  | None -> ());
  (st, Shape.ravel shape vals)

let apply_unop op x =
  match op with
  | Neg -> -.x
  | Exp -> exp x
  | Log -> log x
  | Sqrt -> sqrt x
  | Tanh -> tanh x
  | Sigmoid -> 1.0 /. (1.0 +. exp (-.x))
  | Abs -> Float.abs x

let apply_binop op a b =
  match op with
  | Fadd -> a +. b
  | Fsub -> a -. b
  | Fmul -> a *. b
  | Fdiv -> a /. b
  | Fmin -> Float.min a b
  | Fmax -> Float.max a b

let apply_cmp : type a. cmp -> a -> a -> bool =
 fun op a b ->
  match op with
  | Ceq -> a = b
  | Cne -> a <> b
  | Clt -> a < b
  | Cle -> a <= b
  | Cgt -> a > b
  | Cge -> a >= b

let rec eval_f env e =
  match e with
  | Fconst x -> x
  | Float_of_int a -> float_of_int (eval_i env a)
  | Load (buf, idx) ->
      let st, i = flat env buf idx in
      Tensor.store_get1 st i
  | Funop (op, a) -> apply_unop op (eval_f env a)
  | Fbinop (op, a, b) -> apply_binop op (eval_f env a) (eval_f env b)
  | Select (c, a, b) -> if eval_c env c then eval_f env a else eval_f env b

and eval_c env c =
  match c with
  | Icmp (op, a, b) -> apply_cmp op (eval_i env a) (eval_i env b)
  | Fcmp (op, a, b) -> apply_cmp op (eval_f env a) (eval_f env b)
  | Cand (a, b) -> eval_c env a && eval_c env b
  | Cor (a, b) -> eval_c env a || eval_c env b
  | Cnot a -> not (eval_c env a)

let observe env buf i v =
  match env.trace_store with Some f -> f buf i v | None -> ()

let rec exec env s =
  match s with
  | Store { buf; idx; value } ->
      let v = eval_f env value in
      let st, i = flat env buf idx in
      observe env buf i v;
      Tensor.store_set1 st i v
  | Accum { op; buf; idx; value } ->
      let v = eval_f env value in
      let st, i = flat env buf idx in
      let old = Tensor.store_get1 st i in
      let v' = match op with Acc_sum -> old +. v | Acc_max -> Float.max old v in
      observe env buf i v';
      Tensor.store_set1 st i v'
  | Memset { buf; value } -> Tensor.store_fill (env.store_of buf) value
  | Fusion_barrier _ -> ()
  | Extern e ->
      let item =
        match e.item_var with Some v -> eval_var env v | None -> 0
      in
      e.run ~lookup:env.lookup ~item
  | Gemm g -> (
      let sa = env.store_of g.a in
      let sb = env.store_of g.b in
      let sc = env.store_of g.c in
      let m = eval_i env g.m and n = eval_i env g.n and k = eval_i env g.k in
      let off_a = eval_i env g.off_a
      and off_b = eval_i env g.off_b
      and off_c = eval_i env g.off_c in
      (* The kernels trust their spans; check them before dispatch so an
         out-of-range call raises without writing anything. *)
      Ir_bounds.check_gemm_spans g ~m ~n ~k ~off_a ~off_b ~off_c
        ~extent_a:(Tensor.store_numel sa) ~extent_b:(Tensor.store_numel sb)
        ~extent_c:(Tensor.store_numel sc);
      match
        (Tensor.store_f32_data sa, Tensor.store_f32_data sb,
         Tensor.store_f32_data sc)
      with
      | Some a, Some b, Some c ->
          Blas.gemm_naive ~alpha:g.alpha ~beta:g.beta ~transa:g.transa
            ~transb:g.transb ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c ()
      | _ ->
          (* Same dispatch as the compiled path, so quantized programs
             are bit-comparable between interpreter and codegen. *)
          Qblas.gemm ~alpha:g.alpha ~beta:g.beta ~transa:g.transa
            ~transb:g.transb ~m ~n ~k ~a:sa ~off_a ~b:sb ~off_b ~c:sc ~off_c
            ())
  | If (c, t, e) -> List.iter (exec env) (if eval_c env c then t else e)
  | For l ->
      let lo = eval_i env l.lo and hi = eval_i env l.hi in
      let saved = Hashtbl.find_opt env.vars l.var in
      for i = lo to hi - 1 do
        Hashtbl.replace env.vars l.var i;
        List.iter (exec env) l.body
      done;
      (match saved with
      | Some v -> Hashtbl.replace env.vars l.var v
      | None -> Hashtbl.remove env.vars l.var)

let run ~lookup ?store_of ?(bindings = []) ?trace ?trace_store stmts =
  let vars = Hashtbl.create 16 in
  List.iter (fun (v, n) -> Hashtbl.replace vars v n) bindings;
  let store_of =
    match store_of with
    | Some f -> f
    | None -> fun buf -> Tensor.store_of_f32 (lookup buf)
  in
  let env = { lookup; store_of; vars; trace; trace_store } in
  List.iter (exec env) stmts
