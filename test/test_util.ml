(* Shared helpers for end-to-end network tests. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let base_net ~batch =
  let net = Net.create ~batch_size:batch in
  Net.add_external net ~name:"label" ~item_shape:[];
  Net.add_external net ~name:"loss" ~item_shape:[];
  net

let attach_loss net last =
  ignore
    (Layers.softmax_loss net ~name:"sl" ~input:last ~label_buf:"label"
       ~loss_buf:"loss")

let prepare ?(config = Config.default) ?(seed = 1) net =
  Executor.prepare (Pipeline.compile ~seed config net)

let fill_inputs ?(seed = 77) exec ~batch ~n_classes =
  let rng = Rng.create seed in
  let data = Executor.lookup exec "data.value" in
  Tensor.fill_uniform rng data ~lo:(-1.0) ~hi:1.0;
  let labels = Executor.lookup exec "label" in
  for b = 0 to batch - 1 do
    Tensor.set1 labels b (float_of_int (b mod n_classes))
  done

let total_loss exec =
  Executor.forward exec;
  let loss = Executor.lookup exec "loss" in
  Tensor.sum loss /. float_of_int (Tensor.numel loss)

(* Central-difference gradient check over (up to) [samples] entries of
   each listed parameter buffer. Returns the max relative error. *)
let gradient_check ?(samples = 6) ?(eps = 1e-3) exec ~params =
  Executor.forward exec;
  Executor.backward exec;
  let max_rel = ref 0.0 in
  List.iter
    (fun buf_name ->
      let w = Executor.lookup exec buf_name in
      let g = Executor.lookup exec (buf_name ^ ".grad") in
      let n = Tensor.numel w in
      let stride = max 1 (n / samples) in
      let k = ref 0 in
      while !k < n do
        let idx = !k in
        let orig = Tensor.get1 w idx in
        Tensor.set1 w idx (orig +. eps);
        let lp = total_loss exec in
        Tensor.set1 w idx (orig -. eps);
        let lm = total_loss exec in
        Tensor.set1 w idx orig;
        let fd = (lp -. lm) /. (2.0 *. eps) in
        let an = Tensor.get1 g idx in
        (* Float32 storage limits central differences to ~1e-2 absolute
           precision; use a mixed absolute/relative criterion. *)
        let rel = Float.abs (fd -. an) /. Float.max 2e-2 (Float.abs fd) in
        if rel > !max_rel then max_rel := rel;
        k := !k + stride
      done)
    params;
  !max_rel

(* Gradient check against the *data* (exercises the whole backward
   chain including input scatters). *)
let data_gradient_check ?(samples = 6) ?(eps = 1e-3) exec =
  Executor.forward exec;
  Executor.backward exec;
  let w = Executor.lookup exec "data.value" in
  let g = Executor.lookup exec "data.grad" in
  let n = Tensor.numel w in
  let stride = max 1 (n / samples) in
  let max_rel = ref 0.0 in
  let k = ref 0 in
  while !k < n do
    let idx = !k in
    let orig = Tensor.get1 w idx in
    Tensor.set1 w idx (orig +. eps);
    let lp = total_loss exec in
    Tensor.set1 w idx (orig -. eps);
    let lm = total_loss exec in
    Tensor.set1 w idx orig;
    let fd = (lp -. lm) /. (2.0 *. eps) in
    let an = Tensor.get1 g idx in
    let rel = Float.abs (fd -. an) /. Float.max 2e-2 (Float.abs fd) in
    if rel > !max_rel then max_rel := rel;
    k := !k + stride
  done;
  !max_rel

(* Random integer expressions over [vars] for the index properties:
   constants, variables, sums, differences, products by a constant in
   [±coeff], variable products, min/max, and div/mod of a variable by a
   constant in [1, 5]. Div/mod keep the non-negative operand contract
   when the variables are bound to non-negative values, as
   [linear_case_gen] binds them. *)
let linear_expr_gen ~vars ~coeff =
  let open QCheck.Gen in
  let leaf =
    oneof [ map Ir.int_ (int_range (-8) 8); map Ir.var (oneofl vars) ]
  in
  sized_size (int_bound 10)
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           frequency
             [
               (2, leaf);
               (3, map2 (fun x y -> Ir.Iadd (x, y)) sub sub);
               (3, map2 (fun x y -> Ir.Isub (x, y)) sub sub);
               ( 2,
                 map2
                   (fun k x -> Ir.Imul (Ir.int_ k, x))
                   (int_range (-coeff) coeff) sub );
               (1, map2 (fun x y -> Ir.Imul (x, y)) sub sub);
               (1, map2 (fun x y -> Ir.Imin (x, y)) sub sub);
               (1, map2 (fun x y -> Ir.Imax (x, y)) sub sub);
               ( 1,
                 map2
                   (fun v d -> Ir.Idiv (Ir.var v, Ir.int_ d))
                   (oneofl vars) (int_range 1 5) );
               ( 1,
                 map2
                   (fun v d -> Ir.Imod (Ir.var v, Ir.int_ d))
                   (oneofl vars) (int_range 1 5) );
             ])

(* An expression with each variable bound to a value in [0, 9]. *)
let linear_case_gen ~vars ~coeff =
  QCheck.Gen.(
    map2
      (fun e vals -> (e, List.combine vars vals))
      (linear_expr_gen ~vars ~coeff)
      (list_repeat (List.length vars) (int_bound 9)))

(* Reference evaluator matching Ir_eval's integer semantics (floor
   division; operands are kept non-negative by the generator). *)
let rec eval_iexpr env = function
  | Ir.Iconst k -> k
  | Ir.Ivar v -> List.assoc v env
  | Ir.Iadd (x, y) -> eval_iexpr env x + eval_iexpr env y
  | Ir.Isub (x, y) -> eval_iexpr env x - eval_iexpr env y
  | Ir.Imul (x, y) -> eval_iexpr env x * eval_iexpr env y
  | Ir.Idiv (x, y) -> eval_iexpr env x / eval_iexpr env y
  | Ir.Imod (x, y) -> eval_iexpr env x mod eval_iexpr env y
  | Ir.Imin (x, y) -> min (eval_iexpr env x) (eval_iexpr env y)
  | Ir.Imax (x, y) -> max (eval_iexpr env x) (eval_iexpr env y)

let linear_print (e, env) =
  Printf.sprintf "%s with %s"
    (Ir_printer.iexpr_to_string e)
    (String.concat ", " (List.map (fun (v, x) -> Printf.sprintf "%s=%d" v x) env))
