type mode = Synchronized | Lossy

type worker = { spec : Models.spec; exec : Executor.t }

type t = {
  workers : worker array;
  solver : Solver.t;  (** Owns optimizer state, bound to worker 0. *)
  mode : mode;
  faults : Fault.t;
  grad_acc : (Program.param * Tensor.t) list;
      (** Synchronized-mode gradient accumulators, so a survivor can
          adopt a dead worker's batch slice without clobbering the
          gradients it already computed. *)
}

let create ?(seed = 42) ?(faults = Fault.none) ~workers ~config ~build
    ~solver_method ~solver_params mode =
  if workers < 1 then invalid_arg "Data_parallel.create: workers >= 1";
  let mk () =
    let spec = build () in
    let prog = Pipeline.compile ~seed config spec.Models.net in
    { spec; exec = Executor.prepare prog }
  in
  let workers = Array.init workers (fun _ -> mk ()) in
  let solver = Solver.create ~params:solver_params solver_method workers.(0).exec in
  let grad_acc =
    List.map
      (fun (p : Program.param) ->
        let value = Executor.lookup workers.(0).exec p.value_buf in
        (p, Tensor.create (Tensor.shape value)))
      (Executor.program workers.(0).exec).Program.params
  in
  { workers; solver; mode; faults; grad_acc }

let params_of w = (Executor.program w.exec).Program.params

let iter_params t f =
  List.iter f (params_of t.workers.(0))

(* Worker 0's replica is the parameter master: the solver updates it
   even when its *compute* role has been killed by the fault plan. Only
   surviving workers receive the refreshed parameters. *)
let broadcast t ~alive =
  let w0 = t.workers.(0) in
  iter_params t (fun (p : Program.param) ->
      let src = Executor.lookup w0.exec p.value_buf in
      List.iter
        (fun k ->
          if k > 0 then
            Tensor.blit ~src ~dst:(Executor.lookup t.workers.(k).exec p.value_buf))
        alive)

let alive_workers t ~step =
  let nw = Array.length t.workers in
  let dead = Fault.killed_workers t.faults ~step in
  List.filter (fun k -> not (List.mem k dead)) (List.init nw Fun.id)

let step t ~data ~batch_index =
  let nw = Array.length t.workers in
  let alive = alive_workers t ~step:batch_index in
  if alive = [] then
    failwith
      (Printf.sprintf "Data_parallel.step: all %d workers dead at step %d" nw
         batch_index);
  let alive_arr = Array.of_list alive in
  let na = Array.length alive_arr in
  (* Worker [k] computes forward/backward over batch slice [slice]. *)
  let run_slice k slice =
    let w = t.workers.(k) in
    let data_t = Executor.lookup w.exec (w.spec.Models.data_ens ^ ".value") in
    let labels_t = Executor.lookup w.exec w.spec.Models.label_buf in
    Synthetic.fill_batch data ~batch_index:((batch_index * nw) + slice) ~data:data_t
      ~labels:labels_t;
    Executor.forward w.exec;
    Executor.backward w.exec;
    let loss = Executor.lookup w.exec w.spec.Models.loss_buf in
    Tensor.sum loss /. float_of_int (Tensor.numel loss)
  in
  let losses = ref 0.0 and slices_run = ref 0 in
  let w0 = t.workers.(0) in
  (match t.mode with
  | Synchronized ->
      (* Gradient summation (§5.3) with elastic re-sharding: all [nw]
         batch slices are computed every step; a dead worker's slice is
         adopted round-robin by the survivors (so the effective batch —
         and, under a fixed seed, the whole run — stays deterministic),
         then one optimizer step and a broadcast. *)
      List.iter (fun (_, acc) -> Tensor.fill acc 0.0) t.grad_acc;
      for slice = 0 to nw - 1 do
        let k = alive_arr.(slice mod na) in
        losses := !losses +. run_slice k slice;
        incr slices_run;
        List.iter
          (fun ((p : Program.param), acc) ->
            Tensor.add_inplace acc (Executor.lookup t.workers.(k).exec p.grad_buf))
          t.grad_acc
      done;
      List.iter
        (fun ((p : Program.param), acc) ->
          Tensor.blit ~src:acc ~dst:(Executor.lookup w0.exec p.grad_buf))
        t.grad_acc;
      Solver.update t.solver
  | Lossy ->
      (* Every surviving worker's (stale) gradient is applied as its own
         update, in arrival order — the unsynchronized ∇-field
         semantics. A dead replica's slice is simply skipped. *)
      List.iter
        (fun k ->
          losses := !losses +. run_slice k k;
          incr slices_run)
        alive;
      List.iter
        (fun k ->
          if k > 0 then
            iter_params t (fun (p : Program.param) ->
                Tensor.blit
                  ~src:(Executor.lookup t.workers.(k).exec p.grad_buf)
                  ~dst:(Executor.lookup w0.exec p.grad_buf));
          Solver.update t.solver)
        alive);
  broadcast t ~alive;
  !losses /. float_of_int !slices_run

let train t ~data ~iters ?log () =
  for it = 0 to iters - 1 do
    let loss = step t ~data ~batch_index:it in
    match log with
    | Some f when it mod 20 = 0 || it = iters - 1 -> f ~iter:it ~loss
    | _ -> ()
  done

let accuracy t ~data =
  let w0 = t.workers.(0) in
  Training.accuracy ~exec:w0.exec ~data
    ~data_buf:(w0.spec.Models.data_ens ^ ".value")
    ~label_buf:w0.spec.Models.label_buf
    ~output_buf:(w0.spec.Models.output_ens ^ ".value")
