type method_ =
  | Sgd
  | Rmsprop of { decay : float; epsilon : float }
  | Adagrad of { epsilon : float }
  | Adam of { beta1 : float; beta2 : float; epsilon : float }

type params = {
  lr_policy : Lr_policy.t;
  momentum : float;
  weight_decay : float;
}

let default_params =
  { lr_policy = Lr_policy.Fixed 0.01; momentum = 0.9; weight_decay = 0.0 }

type pstate = {
  param : Program.param;
  value : Tensor.t;
  grad : Tensor.t;
  state1 : Tensor.t;  (* momentum / mean-square / first moment *)
  state2 : Tensor.t option;  (* Adam second moment *)
}

type t = {
  method_ : method_;
  params : params;
  states : pstate list;
  exec : Executor.t;
  clip_norm : float option;
  nesterov : bool;
  mutable iter : int;
  mutable lr_scale : float;
}

let create ?(params = default_params) ?clip_norm ?(nesterov = false) method_ exec =
  let prog = Executor.program exec in
  let states =
    List.map
      (fun (p : Program.param) ->
        let value = Executor.lookup exec p.value_buf in
        let grad = Executor.lookup exec p.grad_buf in
        (* [update_param] loads both without a bounds check. *)
        if Tensor.numel grad <> Tensor.numel value then
          invalid_arg
            (Printf.sprintf "Solver.create: %s has %d elements, its gradient %d"
               p.value_buf (Tensor.numel value) (Tensor.numel grad));
        let state1 = Tensor.create (Tensor.shape value) in
        let state2 =
          match method_ with
          | Adam _ -> Some (Tensor.create (Tensor.shape value))
          | Sgd | Rmsprop _ | Adagrad _ -> None
        in
        { param = p; value; grad; state1; state2 })
      prog.Program.params
  in
  { method_; params; states; exec; clip_norm; nesterov; iter = 0; lr_scale = 1.0 }

let iter t = t.iter

let lr_scale t = t.lr_scale

let set_lr_scale t s =
  if not (s > 0.0) then invalid_arg "Solver.set_lr_scale: scale must be > 0";
  t.lr_scale <- s

let reset_state t =
  List.iter
    (fun ps ->
      Tensor.fill ps.state1 0.0;
      Option.iter (fun s2 -> Tensor.fill s2 0.0) ps.state2)
    t.states

let learning_rate t = t.lr_scale *. Lr_policy.at t.params.lr_policy ~iter:t.iter

(* Read each buffer once per parameter and load through the typed pair:
   [Tensor.unsafe_get] from this module is an out-of-line call that
   boxes every float. *)
let ug = Tensor.buffer_get
let us = Tensor.buffer_set

let update_param t ~lr ps =
  let n = Tensor.numel ps.value in
  let lr = lr *. ps.param.Program.lr_mult in
  let wd = t.params.weight_decay in
  let value = Tensor.data ps.value
  and grad = Tensor.data ps.grad
  and state1 = Tensor.data ps.state1 in
  match t.method_ with
  | Sgd ->
      let mom = t.params.momentum in
      if t.nesterov then
        for i = 0 to n - 1 do
          let w = ug value i in
          let g = ug grad i +. (wd *. w) in
          let v = (mom *. ug state1 i) +. (lr *. g) in
          us state1 i v;
          (* Look-ahead step: w -= lr*g + mom*v'. *)
          us value i (w -. ((lr *. g) +. (mom *. v)))
        done
      else
        for i = 0 to n - 1 do
          let w = ug value i in
          let g = ug grad i +. (wd *. w) in
          let v = (mom *. ug state1 i) +. (lr *. g) in
          us state1 i v;
          us value i (w -. v)
        done
  | Rmsprop { decay; epsilon } ->
      for i = 0 to n - 1 do
        let w = ug value i in
        let g = ug grad i +. (wd *. w) in
        let ms = (decay *. ug state1 i) +. ((1.0 -. decay) *. g *. g) in
        us state1 i ms;
        us value i (w -. (lr *. g /. (sqrt ms +. epsilon)))
      done
  | Adagrad { epsilon } ->
      for i = 0 to n - 1 do
        let w = ug value i in
        let g = ug grad i +. (wd *. w) in
        let acc = ug state1 i +. (g *. g) in
        us state1 i acc;
        us value i (w -. (lr *. g /. (sqrt acc +. epsilon)))
      done
  | Adam { beta1; beta2; epsilon } ->
      let m2 = Tensor.data (Option.get ps.state2) in
      let step = float_of_int (t.iter + 1) in
      let c1 = 1.0 -. (beta1 ** step) and c2 = 1.0 -. (beta2 ** step) in
      for i = 0 to n - 1 do
        let w = ug value i in
        let g = ug grad i +. (wd *. w) in
        let m = (beta1 *. ug state1 i) +. ((1.0 -. beta1) *. g) in
        let v = (beta2 *. ug m2 i) +. ((1.0 -. beta2) *. g *. g) in
        us state1 i m;
        us m2 i v;
        let mhat = m /. c1 and vhat = v /. c2 in
        us value i (w -. (lr *. mhat /. (sqrt vhat +. epsilon)))
      done

let apply_clipping t =
  match t.clip_norm with
  | None -> ()
  | Some limit ->
      let sq =
        List.fold_left
          (fun acc ps ->
            let g = ps.grad in
            acc +. Tensor.dot g g)
          0.0 t.states
      in
      let norm = sqrt sq in
      if norm > limit then begin
        let scale = limit /. norm in
        List.iter (fun ps -> Tensor.scale_inplace ps.grad scale) t.states
      end

let update t =
  apply_clipping t;
  let lr = learning_rate t in
  List.iter (update_param t ~lr) t.states;
  t.iter <- t.iter + 1

let train_step t =
  Executor.forward t.exec;
  Executor.backward t.exec;
  update t
