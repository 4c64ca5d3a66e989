(* Post-training int8 quantization: pick the buffers that can change
   storage precision, observe their dynamic ranges over calibration
   batches, repack them in place, and re-prepare the executor, whose
   compiled sections resolve buffer stores eagerly. *)

let extern_and_accsum (prog : Program.t) =
  (* Buffers an Extern touches anywhere must stay f32 (externs get the
     raw f32 view); buffers sum-accumulated into must stay f32 because
     a packed Acc_sum re-rounds every partial update (the Narrow_accum
     lint). Max-accumulation is exact on packed storage and stays
     eligible. *)
  let extern = Hashtbl.create 16 and accsum = Hashtbl.create 16 in
  let rec walk s =
    match s with
    | Ir.Extern e ->
        List.iter
          (fun b -> Hashtbl.replace extern b ())
          (e.Ir.reads @ e.Ir.writes)
    | Ir.Accum { op = Ir.Acc_sum; buf; _ } -> Hashtbl.replace accsum buf ()
    | Ir.Accum _ -> ()
    | Ir.For l -> List.iter walk l.Ir.body
    | Ir.If (_, t, e) ->
        List.iter walk t;
        List.iter walk e
    | Ir.Store _ | Ir.Memset _ | Ir.Gemm _ | Ir.Fusion_barrier _ -> ()
  in
  List.iter
    (fun (s : Program.section) -> List.iter walk s.stmts)
    (prog.forward @ prog.backward);
  (extern, accsum)

let int8_candidates ?(keep = []) (prog : Program.t) =
  let pool = prog.buffers in
  let phys b = Buffer_pool.physical pool b in
  let extern, accsum = extern_and_accsum prog in
  let banned = Hashtbl.create 32 in
  let ban b = if Buffer_pool.mem pool b then Hashtbl.replace banned (phys b) () in
  List.iter ban keep;
  Hashtbl.iter (fun b () -> ban b) extern;
  Hashtbl.iter (fun b () -> ban b) accsum;
  List.iter
    (fun (p : Program.param) ->
      ban p.grad_buf;
      (* Biases stay f32: they are stored as [n; 1] columns, so "numel
         equals the leading dimension" spots a vector in matrix
         clothing (a real weight — [10; 64], [6; 1; 5; 5] — always has
         numel > its leading dimension). *)
      let sh = Buffer_pool.shape pool p.value_buf in
      if Array.length sh < 2 || Shape.numel sh = sh.(0) then ban p.value_buf)
    prog.params;
  let param_vals = List.map (fun (p : Program.param) -> p.value_buf) prog.params in
  let fwd_written =
    List.concat_map
      (fun (s : Program.section) -> Ir.buffers_written s.stmts)
      prog.forward
  in
  let seen = Hashtbl.create 32 in
  List.filter
    (fun b ->
      Buffer_pool.mem pool b
      && (not (Hashtbl.mem banned (phys b)))
      &&
      if Hashtbl.mem seen (phys b) then false
      else begin
        Hashtbl.replace seen (phys b) ();
        true
      end)
    (param_vals @ fwd_written)

let calibrate ~exec ~feed ?(batches = 4) bufs =
  let pool = (Executor.program exec).Program.buffers in
  let ranges = List.map (fun b -> (b, ref 0.0)) bufs in
  for i = 0 to batches - 1 do
    feed i;
    Executor.forward exec;
    List.iter
      (fun (b, r) ->
        let a = Tensor.store_absmax (Buffer_pool.store pool b) in
        if a > !r then r := a)
      ranges
  done;
  List.map (fun (b, r) -> (b, !r)) ranges

let apply (prog : Program.t) absmaxes =
  let pool = prog.buffers in
  let packed = Hashtbl.create 16 in
  List.fold_left
    (fun n (b, a) ->
      let p = Buffer_pool.physical pool b in
      if Hashtbl.mem packed p || not (Buffer_pool.is_f32 pool b) then n
      else begin
        Hashtbl.replace packed p ();
        Buffer_pool.repack pool b ~qparams:(Precision.qparams_of_absmax a);
        n + 1
      end)
    0 absmaxes

let quantize ~feed ?batches ?keep exec =
  let prog = Executor.program exec in
  let absmax = calibrate ~exec ~feed ?batches (int8_candidates ?keep prog) in
  match apply prog absmax with
  | 0 -> (exec, 0)
  | n -> (Executor.prepare ~opts:(Executor.run_opts exec) prog, n)
