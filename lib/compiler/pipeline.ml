(* The compiler driver is now a thin wrapper over the pass manager;
   see Pass_manager for the registry and instrumentation. *)

let compile ?seed config net = fst (Pass_manager.run ?seed config net)

(* Parameter initialization draws from the seeded Rng during the
   (required, config-independent) synthesize pass, so compiling the same
   network description twice with one seed yields bit-identical
   parameter values under any two configs — which is what lets the
   reference program stand in for the optimized one at serving time.

   This is the one place a tuned schedule enters a compile. The
   reference is compiled first because its fingerprint (config- and
   schedule-invariant) keys the tuning-cache lookup. Each knob then
   resolves by one precedence: the caller's explicit schedule, else the
   cached one, else the scalar fallback — Config.tile_size and the
   fusion heuristic inside the passes, and for domains the caller's run
   options (Config.num_domains when none are passed). *)
let compile_pair ?seed ?opts config build =
  let ref_prog = compile ?seed Config.unoptimized (build ()) in
  let schedule =
    match config.Config.schedule with
    | Some _ as s -> s
    | None ->
        Option.bind (Tune_cache.dir ()) (fun dir ->
            Option.map Schedule.of_payload
              (Tune_cache.lookup ~dir ~key:(Tuner.cache_key config ref_prog)))
  in
  let fast_prog = compile ?seed { config with Config.schedule } (build ()) in
  let domains =
    match (Option.bind schedule (fun s -> s.Schedule.domains), opts) with
    | Some d, _ -> d
    | None, Some o -> o.Executor.Run_opts.domains
    | None, None -> config.Config.num_domains
  in
  let opts =
    Executor.Run_opts.with_domains domains
      (Option.value ~default:Executor.Run_opts.default opts)
  in
  (Executor.prepare ~opts fast_prog, Executor.prepare ~opts ref_prog)

let dump (p : Program.t) =
  let buf = Buffer.create 4096 in
  let emit dir sections =
    Buffer.add_string buf (Printf.sprintf "=== %s ===\n" dir);
    List.iter
      (fun (s : Program.section) ->
        Buffer.add_string buf (Printf.sprintf "--- section %s ---\n" s.label);
        Buffer.add_string buf (Ir_printer.stmts_to_string s.stmts))
      sections
  in
  emit "forward" p.forward;
  emit "backward" p.backward;
  (* Buffer plan: every named buffer with its shape and size; aliases
     point at the allocation that owns their storage. *)
  Buffer.add_string buf "=== buffers ===\n";
  List.iter
    (fun name ->
      let shape = Buffer_pool.shape p.buffers name in
      let bytes = Buffer_pool.elem_bytes p.buffers name * Shape.numel shape in
      let phys = Buffer_pool.physical p.buffers name in
      (* Storage column only for packed buffers, so f32 plans print
         byte-identically to what the golden dumps pin. *)
      let storage =
        match Buffer_pool.precision p.buffers name with
        | Precision.Any Precision.F32 -> ""
        | a -> Printf.sprintf "  [%s]" (Precision.any_name a)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-28s %-20s %10d bytes%s%s\n" name
           (Shape.to_string shape) bytes storage
           (if String.equal phys name then ""
            else Printf.sprintf "  (alias of %s)" phys)))
    (Buffer_pool.names p.buffers);
  Buffer.add_string buf
    (Printf.sprintf "total allocated: %d bytes\n"
       (Buffer_pool.total_bytes p.buffers));
  Buffer.add_string buf "=== parameters ===\n";
  List.iter
    (fun (pr : Program.param) ->
      let size =
        match List.assoc_opt pr.grad_buf p.grad_sizes with
        | Some n -> n
        | None -> Shape.numel (Buffer_pool.shape p.buffers pr.value_buf)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-28s value=%-20s grad=%-22s %8d elems  lr_mult=%g\n"
           pr.param_name pr.value_buf pr.grad_buf size pr.lr_mult))
    p.params;
  Buffer.contents buf
