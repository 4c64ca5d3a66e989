type compiled_section = { label : string; code : Ir_compile.compiled }

(* The execution knobs, unified: safety (bounds-check policy), domains
   (parallel-loop worker count), token (cancellation). One record
   instead of scattered optional arguments. *)
module Run_opts = struct
  type t = {
    safety : Ir_compile.safety;
    domains : int;
    token : Ir_compile.token option;
        (* Cancellation cell baked into the compiled sections. *)
  }

  (* Env parsing lives in Latte_env, the one seam shared with
     Config.of_env (which this library cannot see). *)
  let default =
    { safety = Ir_compile.Guard_unproven; domains = Latte_env.domains ();
      token = None }
  let with_domains domains t = { t with domains }
  let with_safety safety t = { t with safety }
  let with_token token t = { t with token = Some token }
end

type t = {
  prog : Program.t;
  fwd : compiled_section list;
  bwd : compiled_section list;
  opts : Run_opts.t;
  pool : Domain_pool.t option;  (* The shared pool behind the runner. *)
}

let compile_section safety runner token buffers (s : Program.section) =
  {
    label = s.Program.label;
    code =
      Ir_compile.compile ~lookup:(Buffer_pool.lookup buffers)
        ~store_of:(Buffer_pool.store buffers) ~safety ?runner ?token
        s.Program.stmts;
  }

let prepare ?(opts = Run_opts.default) (prog : Program.t) =
  let domains = max 1 opts.Run_opts.domains in
  let pool = if domains > 1 then Some (Domain_pool.shared domains) else None in
  let runner = Option.map Domain_pool.runner pool in
  let cs =
    compile_section opts.Run_opts.safety runner opts.Run_opts.token prog.buffers
  in
  {
    prog;
    fwd = List.map cs prog.forward;
    bwd = List.map cs prog.backward;
    opts = { opts with domains };
    pool;
  }

let program t = t.prog
let run_opts t = t.opts
let domains t = t.opts.Run_opts.domains
let token t = t.opts.Run_opts.token
let pool t = t.pool
let respawns t = match t.pool with Some p -> Domain_pool.respawns p | None -> 0

let run_sections sections =
  List.iter (fun s -> Ir_compile.run s.code ()) sections

(* Transparent self-healing: a worker-domain death surfaces at the pool
   barrier as [Worker_died] with the pool already respawned; re-running
   the whole direction from its first section is bit-identical to a
   clean run (every memset and in-place update re-executes from the same
   parameter state), so plain [forward]/[backward] just retry. A few
   retries bound the damage of a plan with several armed kills. *)
let heal_retry f =
  let rec go k = try f () with Domain_pool.Worker_died _ when k > 0 -> go (k - 1) in
  go 4

let forward t = heal_retry (fun () -> run_sections t.fwd)
let backward t = heal_retry (fun () -> run_sections t.bwd)

(* Section-at-a-time forward for the serving layer: the cancellation
   token (if any) is checked before each section — [Ir_compile.run]
   raises [Cancelled] at section entry — and once more after the last,
   so a cancel during the final section still unwinds. [on_section]
   observes each completed section (index, label) and is where the
   serving clock advances and cancel decisions are made. Deliberately
   does NOT self-heal on [Worker_died]: the serving layer owns the
   retry so it can account time and metrics for the re-run. *)
let forward_sections ?on_section t =
  let check () =
    match t.opts.Run_opts.token with
    | Some tok -> Ir_compile.check_token tok
    | None -> ()
  in
  List.iteri
    (fun i s ->
      Ir_compile.run s.code ();
      match on_section with Some f -> f i s.label | None -> ())
    t.fwd;
  check ()

(* Discard partial work after a cancellation: zero every non-parameter
   physical block so no half-written activation can leak into a later
   response. Parameters (and their aliases) are preserved — the model
   itself is untouched by a cancelled run. *)
let scrub t =
  let pool = t.prog.Program.buffers in
  let param_phys =
    List.concat_map
      (fun (p : Program.param) ->
        let phys b = Buffer_pool.physical pool b in
        [ phys p.Program.value_buf; phys p.Program.grad_buf ])
      t.prog.Program.params
  in
  List.iter
    (fun name ->
      if
        String.equal (Buffer_pool.physical pool name) name
        && not (List.mem name param_phys)
      then Tensor.store_fill (Buffer_pool.store pool name) 0.0)
    (Buffer_pool.names pool)

let timed_sections sections =
  List.map
    (fun s ->
      let t0 = Unix.gettimeofday () in
      Ir_compile.run s.code ();
      let t1 = Unix.gettimeofday () in
      (s.label, t1 -. t0))
    sections

let forward_timed t = timed_sections t.fwd
let backward_timed t = timed_sections t.bwd

let percentile q samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  a.(min (n - 1) (int_of_float (q *. float_of_int n)))

let median samples = percentile 0.5 samples

let time_run ?(warmup = 1) ?(iters = 3) f =
  for _ = 1 to warmup do
    f ()
  done;
  median
    (Array.init iters (fun _ ->
         let t0 = Unix.gettimeofday () in
         f ();
         Unix.gettimeofday () -. t0))

let lookup_opt t name =
  let pool = t.prog.Program.buffers in
  if Buffer_pool.mem pool name && Buffer_pool.is_f32 pool name then
    Some (Buffer_pool.lookup pool name)
  else None

let lookup t name =
  let pool = t.prog.Program.buffers in
  if Buffer_pool.mem pool name then
    (* Fails with the precision-aware message when the buffer is packed. *)
    Buffer_pool.lookup pool name
  else
    invalid_arg
      (Printf.sprintf "Executor.lookup: unknown buffer %s (available: %s)" name
         (String.concat ", " (Buffer_pool.names pool)))

let read_f32 t name =
  let pool = t.prog.Program.buffers in
  if Buffer_pool.mem pool name then Buffer_pool.read_f32 pool name
  else
    invalid_arg
      (Printf.sprintf "Executor.read_f32: unknown buffer %s" name)

let kernel_stats t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        (Ir_compile.kernel_stats s.code))
    (t.fwd @ t.bwd);
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [])

let schedule t =
  let dir prefix sections =
    List.concat_map
      (fun s ->
        List.map
          (fun e -> (prefix ^ "/" ^ s.label, e))
          (Ir_compile.schedule s.code))
      sections
  in
  dir "forward" t.fwd @ dir "backward" t.bwd
