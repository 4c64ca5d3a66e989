type section_estimate = {
  label : string;
  gemm_flops : float;
  loop_flops : float;
  bytes : float;
  cores_used : float;
  seconds : float;
}

type estimate = {
  sections : section_estimate list;
  total_seconds : float;
}

(* Loop-only cost: the same statements with GEMM calls erased. The GEMM
   contribution is then total - loops. *)
let rec erase_gemm s =
  match s with
  | Ir.Gemm _ -> None
  | Ir.For l -> Some (Ir.For { l with body = List.filter_map erase_gemm l.body })
  | Ir.If (c, t, e) ->
      Some (Ir.If (c, List.filter_map erase_gemm t, List.filter_map erase_gemm e))
  | Ir.Store _ | Ir.Accum _ | Ir.Memset _ | Ir.Fusion_barrier _ | Ir.Extern _ ->
      Some s

(* Largest GEMM row count in the section, with loop variables bound to
   their lower bounds — a proxy for the parallelism a threaded BLAS can
   exploit inside one call. *)
let max_gemm_rows stmts =
  let tbl = Hashtbl.create 8 in
  let env v =
    match Hashtbl.find_opt tbl v with Some n -> n | None -> 0
  in
  let best = ref 0.0 in
  let rec go s =
    match s with
    | Ir.Gemm g ->
        best := Float.max !best (float_of_int (Ir_analysis.eval_iexpr env g.m))
    | Ir.For l ->
        Hashtbl.replace tbl l.var (Ir_analysis.eval_iexpr env l.lo);
        List.iter go l.body;
        Hashtbl.remove tbl l.var
    | Ir.If (_, t, e) ->
        List.iter go t;
        List.iter go e
    | Ir.Store _ | Ir.Accum _ | Ir.Memset _ | Ir.Fusion_barrier _ | Ir.Extern _ ->
        ()
  in
  List.iter go stmts;
  !best

let section_estimate ?(vectorized = true) ?(replicate = 1.0) ?width_of
    (m : Machine.cpu) ~buf_bytes (s : Program.section) =
  let scale (c : Ir_analysis.cost) =
    {
      Ir_analysis.flops = c.flops *. replicate;
      bytes = c.bytes *. replicate;
      parallel_iters =
        (if c.parallel_iters > 1.0 then c.parallel_iters *. replicate
         else c.parallel_iters);
    }
  in
  (* [bytes_of] charges Extern calls (softmax, loss, data copies) for
     streaming their operand buffers once; erase_gemm keeps Extern, so
     the charge lands in [loops] and the GEMM delta is unaffected. *)
  let total =
    scale
      (Ir_analysis.cost_of_stmts ~bytes_of:buf_bytes ?width_of s.Program.stmts)
  in
  let loops =
    scale
      (Ir_analysis.cost_of_stmts ~bytes_of:buf_bytes ?width_of
         (List.filter_map erase_gemm s.Program.stmts))
  in
  let gemm_flops = Float.max 0.0 (total.flops -. loops.flops) in
  let gemm_bytes = Float.max 0.0 (total.bytes -. loops.bytes) in
  let cores = float_of_int m.cores in
  (* Synthesized loops run on as many cores as their parallel
     annotations expose; GEMM calls are additionally parallel inside the
     library across their rows (MKL-style), which is why a framework
     with serial layer code but threaded BLAS — Caffe — still gets fast
     GEMMs but slow everything-else. *)
  let loop_cores = Float.min cores (Float.max 1.0 total.parallel_iters) in
  let gemm_rows = max_gemm_rows s.Program.stmts in
  let gemm_cores =
    Float.min cores (Float.max total.parallel_iters gemm_rows)
    |> Float.max 1.0
  in
  let peak = Machine.peak_gflops m *. 1e9 in
  let loop_eff =
    if vectorized then m.loop_efficiency_simd else m.loop_efficiency_scalar
  in
  let compute_time =
    (gemm_flops /. (peak *. m.gemm_efficiency) *. (cores /. gemm_cores))
    +. (loops.flops /. (peak *. loop_eff) *. (cores /. loop_cores))
  in
  (* Memory traffic: when each parallel task's working set fits in its
     cache share, most accesses hit cache — the benefit the paper's
     tiling and fusion deliver. Bandwidth is capped by how many cores
     are actually streaming. *)
  let touched =
    List.sort_uniq String.compare
      (Ir.buffers_read s.Program.stmts @ Ir.buffers_written s.Program.stmts)
  in
  let working_set = List.fold_left (fun acc b -> acc +. buf_bytes b) 0.0 touched in
  let ws_per_task = working_set /. Float.max 1.0 total.parallel_iters in
  let cache = m.cache_per_core_mb *. 1e6 in
  let reuse = if ws_per_task <= cache then 0.25 else 1.0 in
  let bw_of c = Float.min (m.mem_bw_gbs *. 1e9) (m.core_bw_gbs *. 1e9 *. c) in
  let mem_time =
    (loops.bytes *. reuse /. bw_of loop_cores)
    +. (gemm_bytes *. 0.5 (* GEMM is blocked *) /. bw_of gemm_cores)
  in
  let overhead = m.sync_overhead_us *. 1e-6 in
  let seconds = Float.max compute_time mem_time +. overhead in
  {
    label = s.Program.label;
    gemm_flops;
    loop_flops = loops.flops;
    bytes = total.bytes;
    cores_used = Float.max loop_cores gemm_cores;
    seconds;
  }

let estimate_sections ?vectorized ?replicate ?width_of m ~buf_bytes sections =
  let sections =
    List.map
      (section_estimate ?vectorized ?replicate ?width_of m ~buf_bytes)
      sections
  in
  {
    sections;
    total_seconds = List.fold_left (fun acc s -> acc +. s.seconds) 0.0 sections;
  }

let buf_bytes_of (p : Program.t) name =
  (* Real storage bytes at the buffer's declared width, so packed int8
     buffers cost a quarter of the f32 traffic. *)
  float_of_int
    (Buffer_pool.elem_bytes p.Program.buffers name
    * Shape.numel (Buffer_pool.shape p.Program.buffers name))

let program_time ?vectorized m (p : Program.t) dir =
  let buf_bytes = buf_bytes_of p in
  let width_of = Program.width_of p in
  let of_sections ss =
    (estimate_sections ?vectorized ~width_of m ~buf_bytes ss).total_seconds
  in
  match dir with
  | `Forward -> of_sections p.forward
  | `Backward -> of_sections p.backward
  | `Both -> of_sections p.forward +. of_sections p.backward

let images_per_second ?vectorized m p =
  float_of_int p.Program.batch_size /. program_time ?vectorized m p `Both
