(* latte: command-line driver for the Latte reproduction.

   Subcommands:
     dump-ir   — compile a model and print the optimized IR per section
     analyze   — compile a model and print the bounds/safety analysis
     train     — train a model on a synthetic dataset and report accuracy
     serve-sim — serve a synthetic request load (simulated clock) with
                 batching, deadlines, shedding and breaker degradation
     fleet-sim — run a multi-tenant fleet chaos scenario: lazy registry,
                 weighted-fair routing, rolling updates with rollback
     bench     — time one model against the Caffe-like baseline
     tune      — search-based schedule autotuning with a persisted
                 per-(model, machine) tuning cache
     models    — list available model architectures
     machines  — list the machine models used by the cost model *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let model_names = [ "mlp"; "lenet"; "vgg-block"; "alexnet"; "vgg"; "overfeat" ]

(* A bad command line: print [latte: MSG] and exit 2. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "latte: %s\n" msg;
      exit 2)
    fmt

(* The model-size flags every model-building subcommand takes. *)
type size = { batch : int; image : int; width_div : int; fc_div : int }

let build_model name { batch; image; width_div; fc_div } =
  let scale = { Models.image; width_div; fc_div } in
  match name with
  | "mlp" -> Models.mlp ~batch ~n_inputs:(image * image) ~hidden:[ 64 ] ~n_classes:10
  | "lenet" -> Models.lenet ~batch ~image ~n_classes:10 ()
  | "vgg-block" -> Models.vgg_first_block ~batch ~scale
  | "alexnet" -> Models.alexnet ~batch ~scale ()
  | "vgg" -> Models.vgg ~batch ~scale
  | "overfeat" -> Models.overfeat ~batch ~scale
  | other ->
      usage_error "unknown model %s (try: %s)" other
        (String.concat ", " model_names)

let model_arg =
  let doc = "Model architecture: " ^ String.concat ", " model_names ^ "." in
  Arg.(value & opt string "lenet" & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let size_term =
  let mk batch image width_div fc_div = { batch; image; width_div; fc_div } in
  Term.(
    const mk
    $ Arg.(value & opt int 4 & info [ "b"; "batch" ] ~docv:"N" ~doc:"Batch size.")
    $ Arg.(value & opt int 32 & info [ "image" ] ~docv:"PX"
             ~doc:"Input spatial size.")
    $ Arg.(value & opt int 8 & info [ "width-div" ] ~docv:"D"
             ~doc:"Divide channel counts by D (reduced-scale runs).")
    $ Arg.(value & opt int 32 & info [ "fc-div" ] ~docv:"D"
             ~doc:"Divide fully-connected widths by D."))

(* The compiler and runtime flags every compiling subcommand takes. *)
let config_term =
  let mk tile_size num_domains precision passes =
    let config =
      Config.with_flags ~tile_size ?num_domains ?precision Config.default
    in
    match passes with
    | None -> config
    | Some spec -> (
        try Pass_manager.edit (Pass_manager.parse_spec spec) config
        with Invalid_argument msg -> usage_error "%s" msg)
  in
  Term.(
    const mk
    $ Arg.(value & opt int 4 & info [ "tile-size" ] ~docv:"ROWS"
             ~doc:"Rows of the last fused layer per tile.")
    $ Arg.(value & opt (some int) None
           & info [ "domains" ] ~docv:"N"
               ~doc:"Worker domains executing parallel-annotated loops \
                     (default: the LATTE_DOMAINS environment variable, else \
                     1). Outputs are bit-identical at any count.")
    $ Arg.(value
           & opt (some (enum [ ("f32", `F32); ("int8", `I8) ])) None
           & info [ "precision" ] ~docv:"P"
               ~doc:"Execution precision preset: $(b,f32) (reference) or \
                     $(b,int8) (post-training quantized storage with int32 \
                     accumulation; calibrated where the command has data). \
                     Default: the LATTE_PRECISION environment variable, \
                     else f32.")
    $ Arg.(value & opt (some string) None
           & info [ "passes" ] ~docv:"LIST"
               ~doc:"The optional compiler passes to run. LIST is \
                     comma-separated: $(b,all), $(b,none), an exact list of \
                     pass names, or +name/-name edits of the default (every \
                     optional pass; see $(b,latte passes))."))

(* The executor options a CLI config implies: --domains feeds the
   domain-pool size, everything else keeps Run_opts defaults. *)
let run_opts_of config =
  Executor.Run_opts.with_domains config.Config.num_domains
    Executor.Run_opts.default

let verify_arg =
  Arg.(value & flag
       & info [ "verify-ir" ]
           ~doc:"Run the IR well-formedness verifier after every compiler \
                 pass; abort with diagnostics on the first failure.")

let watchdog_slack_arg =
  Arg.(value & opt float 8.0 & info [ "watchdog-slack" ] ~docv:"X"
         ~doc:"Hang-watchdog threshold: a section whose simulated run time \
               exceeds its cost-model estimate by more than this factor \
               cancels the batch mid-run and recycles the worker domains.")

let faults_of = function
  | None -> Fault.none
  | Some spec -> (
      try Fault.parse spec with Invalid_argument msg -> usage_error "%s" msg)

(* Run the pass manager with CLI-friendly error handling: verifier
   diagnostics exit 1, bad --dump-ir-after names exit 2. *)
let compile_with ?(verify = false) ?(dump_after = []) config net =
  try Pass_manager.run ~verify ~dump_after config net with
  | Pass_manager.Verification_failed (pass, errs) ->
      Printf.eprintf "latte: IR verification failed after pass `%s':\n" pass;
      List.iter (fun e -> Printf.eprintf "  %s\n" (Ir_verify.to_string e)) errs;
      exit 1
  | Pass_manager.Analysis_failed (pass, findings) ->
      Printf.eprintf "latte: bounds analysis failed after pass `%s':\n" pass;
      List.iter
        (fun f -> Printf.eprintf "  %s\n" (Ir_bounds.finding_to_string f))
        findings;
      exit 1
  | Invalid_argument msg -> usage_error "%s" msg

(* ------------------------------------------------------------------ *)
(* dump-ir                                                             *)
(* ------------------------------------------------------------------ *)

let dump_ir model size config verify dump_after pass_stats =
  let spec = build_model model size in
  let dump_after = List.concat_map Pass_manager.parse_spec dump_after in
  let prog, report = compile_with ~verify ~dump_after config spec.Models.net in
  List.iter
    (fun (o : Pass_manager.outcome) ->
      match o.dump with
      | Some d ->
          Printf.printf "===== IR after pass %s =====\n%s" o.info.Pass.name d
      | None -> ())
    report.Pass_manager.outcomes;
  print_string (Pipeline.dump prog);
  (match report.Pass_manager.parallel_annotated with
  | [] -> ()
  | anns ->
      Printf.printf "=== parallel annotations ===\n";
      List.iter
        (fun (region, vars) ->
          Printf.printf "%-40s %s\n" region (String.concat ", " vars))
        anns);
  if config.Config.num_domains > 1 then begin
    let exec = Executor.prepare ~opts:(run_opts_of config) prog in
    Printf.printf "=== runtime parallel schedule (%d domains) ===\n"
      (Executor.domains exec);
    List.iter
      (fun (sect, (e : Ir_compile.par_entry)) ->
        match e.Ir_compile.par_fallback with
        | Some reason ->
            Printf.printf "%-40s loop %-8s sequential fallback: %s\n" sect
              e.Ir_compile.par_var reason
        | None ->
            Printf.printf "%-40s loop %-8s %d workers%s\n" sect
              e.Ir_compile.par_var e.Ir_compile.par_workers
              (match e.Ir_compile.par_replayed with
              | [] -> ""
              | rs ->
                  Printf.sprintf ", sequential replay of %s"
                    (String.concat ", " rs)))
      (Executor.schedule exec)
  end;
  if pass_stats then begin
    Printf.printf "=== passes ===\n";
    Printf.printf "%-12s %-4s %9s  %s\n" "pass" "on" "ms" "IR census";
    List.iter
      (fun (o : Pass_manager.outcome) ->
        Printf.printf "%-12s %-4s %9.3f  %s\n" o.info.Pass.name
          (if o.enabled then "on" else "off")
          (o.seconds *. 1e3)
          (Ir_stats.to_string o.stats))
      report.Pass_manager.outcomes;
    Printf.printf "total: %.3f ms\n" (report.Pass_manager.total_seconds *. 1e3)
  end

let dump_ir_cmd =
  let dump_after_arg =
    Arg.(value & opt_all string []
         & info [ "dump-ir-after" ] ~docv:"PASS"
             ~doc:"Print the IR as it stands after PASS (repeatable; \
                   comma-separated; $(b,all) dumps after every enabled pass).")
  in
  let pass_stats_arg =
    Arg.(value & flag
         & info [ "pass-stats" ]
             ~doc:"Print per-pass wall time and IR statistics.")
  in
  Cmd.v
    (Cmd.info "dump-ir" ~doc:"Compile a model and print the optimized IR.")
    Term.(const dump_ir $ model_arg $ size_term $ config_term $ verify_arg
          $ dump_after_arg $ pass_stats_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

(* Dynamic-range report backing the int8 calibration story: run a few
   forward passes over uniform-[0,1) synthetic batches and print each
   physical buffer's observed min/max/absmax, marking the buffers the
   post-training quantizer would pack. *)
let print_ranges spec config prog =
  let exec = Executor.prepare ~opts:(run_opts_of config) prog in
  let rng = Rng.create 7 in
  let feed () =
    List.iter
      (fun (e : Ensemble.t) ->
        match e.Ensemble.kind with
        | Ensemble.Data ->
            (* lookup, not read_f32: inputs/labels are never packed and
               read_f32 hands back a copy, so fills must hit the live
               f32 block. *)
            Tensor.fill_uniform rng
              (Executor.lookup exec (e.Ensemble.name ^ ".value"))
              ~lo:0.0 ~hi:1.0
        | _ -> ())
      (Net.ensembles spec.Models.net);
    Tensor.fill (Executor.lookup exec spec.Models.label_buf) 0.0
  in
  let pool = prog.Program.buffers in
  let canon =
    List.filter
      (fun b -> String.equal (Buffer_pool.physical pool b) b)
      (Buffer_pool.names pool)
  in
  let ranges = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace ranges b (Precision.range_empty ())) canon;
  let batches = 4 in
  for _b = 1 to batches do
    feed ();
    Executor.forward exec;
    List.iter
      (fun buf ->
        let r = Hashtbl.find ranges buf in
        let t = Buffer_pool.read_f32 pool buf in
        for i = 0 to Tensor.numel t - 1 do
          Precision.range_update r (Tensor.get1 t i)
        done)
      canon
  done;
  let int8_phys =
    List.map (Buffer_pool.physical pool) (Quantize.int8_candidates prog)
  in
  Printf.printf
    "=== dynamic ranges (%d forward batches, uniform [0,1) inputs) ===\n"
    batches;
  Printf.printf "%-28s %9s %-5s %11s %11s %11s  %s\n" "buffer" "numel"
    "store" "min" "max" "absmax" "int8";
  List.iter
    (fun buf ->
      let r = Hashtbl.find ranges buf in
      Printf.printf "%-28s %9d %-5s %11.4f %11.4f %11.4f  %s\n" buf
        (Shape.numel (Buffer_pool.shape pool buf))
        (Precision.any_name (Buffer_pool.precision pool buf))
        r.Precision.lo r.Precision.hi
        (Precision.range_absmax r)
        (if List.mem (Buffer_pool.physical pool buf) int8_phys then "yes"
         else "-"))
    canon

(* Per-parallel-loop dependence verdicts from Ir_deps. Returns [true]
   when any buffer is proven Conflicting — a real race — so the caller
   can fail the run; Unknown verdicts print but don't fail (the
   compiler handles them with sequential replay). *)
let print_races prog =
  let races = Program.races prog in
  print_string (Ir_deps.report_table races);
  List.exists
    (fun (_, reports) ->
      List.exists
        (fun (r : Ir_deps.loop_report) ->
          List.exists
            (fun (bv : Ir_deps.buffer_verdict) ->
              match bv.Ir_deps.bv_verdict with
              | Ir_deps.Conflicting _ -> true
              | _ -> false)
            r.Ir_deps.lr_verdicts)
        reports)
    races

let analyze model size config verify ranges races =
  let spec = build_model model size in
  let prog, report = compile_with ~verify config spec.Models.net in
  let rep =
    Program.analyze
      ~live_out:[ spec.Models.loss_buf; spec.Models.output_ens ^ ".value" ]
      prog
  in
  let open Ir_bounds in
  Printf.printf "%-40s %8s %8s %8s %8s\n" "section" "accesses" "proven"
    "guarded" "flagged";
  List.iter
    (fun (r : region_report) ->
      let s = r.stats in
      Printf.printf "%-40s %8d %8d %8d %8d\n" r.region
        (s.proven + s.guarded + s.flagged)
        s.proven s.guarded s.flagged)
    rep.region_reports;
  let t = rep.totals in
  Printf.printf "%-40s %8d %8d %8d %8d\n" "total"
    (t.proven + t.guarded + t.flagged)
    t.proven t.guarded t.flagged;
  (match all_findings rep with
  | [] -> Printf.printf "no findings\n"
  | fs ->
      Printf.printf "findings:\n";
      List.iter (fun f -> Printf.printf "  %s\n" (finding_to_string f)) fs);
  (match report.Pass_manager.parallel_annotated with
  | [] -> Printf.printf "parallel annotations: none\n"
  | anns ->
      Printf.printf "parallel annotations:\n";
      List.iter
        (fun (region, vars) ->
          Printf.printf "  %-38s %s\n" region (String.concat ", " vars))
        anns);
  Printf.printf "%s\n" (summary rep);
  if ranges then print_ranges spec config prog;
  let conflicting = if races then print_races prog else false in
  if fatal_findings rep <> [] || conflicting then exit 1

let analyze_cmd =
  let ranges_arg =
    Arg.(value & flag
         & info [ "ranges" ]
             ~doc:"Also print each buffer's observed dynamic range \
                   (min/max/absmax over a few synthetic forward batches) and \
                   whether the int8 post-training quantizer would pack it.")
  in
  let races_arg =
    Arg.(value & flag
         & info [ "races" ]
             ~doc:"Also print the Ir_deps dependence table: for every \
                   parallel loop, each touched buffer's verdict \
                   (independent, reduction, conflict with a concrete \
                   two-iteration witness, or unknown). Exits 1 when any \
                   buffer is proven Conflicting.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Compile a model and print the interval bounds / safety analysis: \
             per-section counts of accesses proven in-bounds, accesses that \
             get a runtime guard, and flagged accesses, plus \
             division-by-zero, use-before-initialization and dead-store \
             findings. Exits 1 when any finding is fatal (a proven \
             out-of-bounds access or a read of never-initialized data), or \
             when $(b,--races) finds a proven race.")
    Term.(const analyze $ model_arg $ size_term $ config_term $ verify_arg
          $ ranges_arg $ races_arg)

(* ------------------------------------------------------------------ *)
(* train                                                               *)
(* ------------------------------------------------------------------ *)

let train model size config verify iters lr faults_spec ckpt_dir =
  let spec = build_model model size in
  let image = size.image in
  let prog, _report = compile_with ~verify config spec.Models.net in
  let exec = Executor.prepare ~opts:(run_opts_of config) prog in
  let data_buf = spec.Models.data_ens ^ ".value" in
  (* Gray synthetic images with as many channels as the model's input
     takes; a flat input (mlp) gets one row per image. *)
  let all =
    match Buffer_pool.shape prog.Program.buffers data_buf with
    | [| _; _; _; channels |] ->
        Synthetic.mnist_like ~image ~channels ~seed:11 ~n:768 ()
    | _ ->
        let all = Synthetic.mnist_like ~image ~seed:11 ~n:768 () in
        { all with
          Synthetic.features =
            Tensor.reshape all.Synthetic.features
              (Shape.create [ 768; image * image ]) }
  in
  let train_set, eval_set = Synthetic.split all ~at:512 in
  let params =
    { Solver.lr_policy = Lr_policy.Inv { base = lr; gamma = 1e-3; power = 0.75 };
      momentum = 0.9; weight_decay = 0.0 }
  in
  let solver = Solver.create ~params Solver.Sgd exec in
  let log ~iter ~loss = Printf.printf "iter %4d  loss %.4f\n%!" iter loss in
  (match (faults_spec, ckpt_dir) with
  | None, None ->
      ignore
        (Training.fit ~log ~solver ~exec ~data:train_set ~data_buf
           ~label_buf:spec.Models.label_buf ~loss_buf:spec.Models.loss_buf ~iters ())
  | _ ->
      (* Supervised, fault-tolerant path: checkpoint rotation, divergence
         detection, rollback with LR backoff — with optional armed faults. *)
      let faults = faults_of faults_spec in
      let ckpt_dir =
        match ckpt_dir with
        | Some d -> d
        | None ->
            Filename.concat (Filename.get_temp_dir_name ())
              (Printf.sprintf "latte-ckpt-%d" (Unix.getpid ()))
      in
      if not (Fault.is_empty faults) then
        Printf.printf "armed faults: %s\n%!" (Fault.to_string faults);
      Printf.printf "checkpoints: %s\n%!" ckpt_dir;
      let report =
        try
          Trainer.fit ~log ~faults ~ckpt_dir ~solver ~exec ~data:train_set
            ~data_buf ~label_buf:spec.Models.label_buf
            ~loss_buf:spec.Models.loss_buf ~iters ()
        with Invalid_argument msg -> usage_error "%s" msg
      in
      List.iter
        (fun e -> Printf.printf "[event] %s\n" (Trainer.event_to_string e))
        report.Trainer.events;
      Printf.printf "run %s after %d rollback(s), final loss %.4f\n"
        (if report.Trainer.completed then "completed" else "FAILED")
        report.Trainer.rollbacks report.Trainer.final_loss);
  let output_buf = spec.Models.output_ens ^ ".value" in
  let acc =
    Training.accuracy ~exec ~data:eval_set ~data_buf
      ~label_buf:spec.Models.label_buf ~output_buf
  in
  Printf.printf "held-out top-1 accuracy: %.1f%%\n" (acc *. 100.0);
  match config.Config.precision with
  | `F32 -> ()
  | `I8 ->
      (* Post-training quantization: calibrate on training batches, pack
         params + activations, re-prepare, re-evaluate. The eval-facing
         buffers stay f32 so Training.accuracy can read them. *)
      let data_t = Executor.lookup exec data_buf in
      let labels_t = Executor.lookup exec spec.Models.label_buf in
      let feed i =
        Synthetic.fill_batch train_set ~batch_index:i ~data:data_t
          ~labels:labels_t
      in
      let keep =
        [ data_buf; spec.Models.label_buf; spec.Models.loss_buf; output_buf ]
      in
      let exec, n = Quantize.quantize ~feed ~keep exec in
      let qacc =
        Training.accuracy ~exec ~data:eval_set ~data_buf
          ~label_buf:spec.Models.label_buf ~output_buf
      in
      Printf.printf
        "int8 post-training quantization: %d buffer(s) packed, held-out \
         top-1 accuracy %.1f%% (f32 %.1f%%)\n"
        n (qacc *. 100.0) (acc *. 100.0)

let train_cmd =
  let iters =
    Arg.(value & opt int 200 & info [ "iters" ] ~docv:"N" ~doc:"Training iterations.")
  in
  let lr =
    Arg.(value & opt float 0.01 & info [ "lr" ] ~docv:"LR" ~doc:"Base learning rate.")
  in
  let faults =
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Arm a fault-injection plan and train under the supervised \
                 fault-tolerant runtime. SPEC is comma-separated items: \
                 crash-save@N (crash during the Nth checkpoint write), \
                 nan:BUF@K / inf:BUF@K (poison buffer BUF at iteration K), \
                 kill:W@S (kill data-parallel worker W at step S), \
                 slow:NODE@F (straggler factor F on NODE in the cluster \
                 simulator). The serving-time forms (poison-out:BUF@K, \
                 slow-section:LABEL@F) parse but only fire under \
                 $(b,serve-sim).")
  in
  let ckpt_dir =
    Arg.(value & opt (some string) None & info [ "ckpt-dir" ] ~docv:"DIR"
           ~doc:"Checkpoint directory for the supervised trainer (implies the \
                 fault-tolerant path; default under the system temp dir).")
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:"Train a model on a synthetic MNIST-like dataset and report accuracy.")
    Term.(const train $ model_arg $ size_term $ config_term $ verify_arg $ iters
          $ lr $ faults $ ckpt_dir)

(* ------------------------------------------------------------------ *)
(* serve-sim                                                           *)
(* ------------------------------------------------------------------ *)

let serve_sim model size config requests rate deadline_ms queue_cap max_wait_ms
    breaker_k cooldown_ms retries backoff_ms watchdog_slack faults_spec seed =
  let faults = faults_of faults_spec in
  let spec = build_model model size in
  (* Single-model serving is a one-tenant fleet over a one-model
     registry: the tenant's token bucket never throttles and its queue
     is the --queue-cap high-water mark. *)
  let registry = Registry.create ~opts:(run_opts_of config) () in
  Registry.register registry ~name:model ~seed ~config
    ~input_buf:(spec.Models.data_ens ^ ".value")
    ~output_buf:(spec.Models.output_ens ^ ".value")
    (fun () -> (build_model model size).Models.net);
  let fleet =
    try
      let fleet =
        Fleet.create ~failure_threshold:breaker_k
          ~cooldown:(cooldown_ms /. 1e3) ~max_retries:retries
          ~backoff:(backoff_ms /. 1e3) ~watchdog_slack ~faults ~registry
          ~tenants:
            [ { Router.name = model; weight = 1.0; rate = Float.infinity;
                burst = Float.infinity; queue_cap; deadline = Float.infinity } ]
          ()
      in
      (* Compile before any traffic, so a bad poison-out target exits 2
         here. *)
      ignore (Fleet.batch_size fleet model);
      fleet
    with Invalid_argument msg -> usage_error "%s" msg
  in
  let entry = Registry.get registry model ~version:0 in
  Printf.printf "serving %s (batch %d, queue %d, breaker K=%d, cooldown %gms)\n"
    model size.batch queue_cap breaker_k cooldown_ms;
  if entry.Registry.quantized then
    Printf.printf
      "fast path quantized (%s preset); degraded reference stays f32\n"
      (Precision.preset_to_string config.Config.precision);
  if not (Fault.is_empty faults) then
    Printf.printf "armed faults: %s\n" (Fault.to_string faults);
  Printf.printf "fast-path sections (modeled cost per forward):\n";
  List.iter
    (fun (label, s) ->
      let f = Fault.section_factor faults ~label in
      Printf.printf "  %-34s %9.3f us%s\n" label (s *. 1e6)
        (if f > 1.0 then Printf.sprintf "  (slowed x%g)" f else ""))
    entry.Registry.fast_costs;
  let rng = Rng.create seed in
  Scenario.drive rng fleet ~max_wait:(max_wait_ms /. 1e3)
    (Scenario.poisson rng ~tenant:model ~model ~n:requests ~rate
       ~deadline:(deadline_ms /. 1e3));
  Printf.printf "simulated %d requests over %.3f ms\n" requests
    (Fleet.now fleet *. 1e3);
  print_string (Serve_metrics.report (Fleet.metrics fleet));
  (match Serve_metrics.slack_report (Fleet.metrics fleet) with
  | Some line -> print_string (line ^ "\n")
  | None -> ());
  let breaker = Fleet.breaker fleet model in
  (match Breaker.transitions breaker with
  | [] ->
      Printf.printf "breaker: no transitions (stayed %s)\n"
        (Breaker.to_string breaker)
  | trs ->
      Printf.printf "breaker transitions:\n";
      List.iter
        (fun tr -> Printf.printf "  %s\n" (Breaker.transition_to_string tr))
        trs);
  List.iter
    (fun (e : Fault.event) -> Printf.printf "[fault] %s\n" e.Fault.what)
    (Fault.events faults);
  let unanswered = Fleet.unanswered fleet in
  if unanswered > 0 then begin
    Printf.eprintf "latte: %d request(s) left unanswered\n" unanswered;
    exit 1
  end

let serve_sim_cmd =
  let requests =
    Arg.(value & opt int 200 & info [ "requests" ] ~docv:"N"
           ~doc:"Requests generated by the open-loop load generator.")
  in
  let rate =
    Arg.(value & opt float 2000.0 & info [ "rate" ] ~docv:"R"
           ~doc:"Mean arrival rate, requests per simulated second.")
  in
  let deadline_ms =
    Arg.(value & opt float 20.0 & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-request deadline (simulated milliseconds after arrival); \
                 requests still queued past it are answered Timeout without \
                 running.")
  in
  let queue_cap =
    Arg.(value & opt int 64 & info [ "queue-cap" ] ~docv:"N"
           ~doc:"Request queue high-water mark; admissions beyond it are Shed.")
  in
  let max_wait_ms =
    Arg.(value & opt float 2.0 & info [ "max-wait-ms" ] ~docv:"MS"
           ~doc:"Dynamic-batching window: a short batch dispatches once its \
                 head-of-line request has waited this long.")
  in
  let breaker_k =
    Arg.(value & opt int 1 & info [ "breaker-k" ] ~docv:"K"
           ~doc:"Consecutive fast-path batch failures that open the circuit \
                 breaker.")
  in
  let cooldown_ms =
    Arg.(value & opt float 5.0 & info [ "cooldown-ms" ] ~docv:"MS"
           ~doc:"Simulated time the breaker stays Open before a half-open \
                 probe of the fast path.")
  in
  let retries =
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N"
           ~doc:"Bounded retries of a failed fast batch (exponential backoff) \
                 while the breaker is still Closed.")
  in
  let backoff_ms =
    Arg.(value & opt float 0.1 & info [ "backoff-ms" ] ~docv:"MS"
           ~doc:"Base retry backoff (doubles per attempt), simulated ms.")
  in
  let faults =
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Arm a serving-time fault plan: poison-out:BUF@K (corrupt \
                 output buffer BUF with NaN on the Kth fast forward), \
                 slow-section:LABEL@F (multiply the simulated cost of every \
                 section whose label contains LABEL by F), \
                 hang-section:LABEL@S (stall the first matching section S \
                 simulated seconds, once — trips the watchdog), \
                 kill-domain:K@T (kill worker domain K at the pool's Tth \
                 dispatch; the pool respawns it), alloc-spike:BYTES (charge \
                 an external allocation against the memory budget); the \
                 training-time forms (crash-save@N, nan:BUF@K, inf:BUF@K, \
                 kill:W@S, slow:NODE@F) parse but do not fire here.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S"
           ~doc:"Seed for arrivals and request features.")
  in
  Cmd.v
    (Cmd.info "serve-sim"
       ~doc:"Serve an open-loop synthetic request load against a compiled \
             model on a simulated clock, with dynamic batching, deadlines, \
             load shedding and a circuit breaker degrading to the \
             unoptimized reference executor; prints latency percentiles, \
             shed/timeout/degraded counts and breaker transitions.")
    Term.(const serve_sim $ model_arg $ size_term $ config_term $ requests
          $ rate $ deadline_ms $ queue_cap $ max_wait_ms $ breaker_k
          $ cooldown_ms $ retries $ backoff_ms $ watchdog_slack_arg $ faults
          $ seed)

(* ------------------------------------------------------------------ *)
(* fleet-sim                                                           *)
(* ------------------------------------------------------------------ *)

let split_csv s =
  List.filter (fun x -> x <> "") (String.split_on_char ',' (String.trim s))

let fleet_sim scenario_name list_scenarios mix_csv size config capacity duration
    seed nodes_csv watchdog_slack mem_budget_mb =
  if list_scenarios then begin
    let models = List.map (fun m -> (m, m)) model_names in
    List.iter
      (fun name ->
        let sc = Scenario.stock ~models name in
        Printf.printf "%-16s %s\n" name sc.Scenario.descr)
      Scenario.names;
    exit 0
  end;
  let mix = split_csv mix_csv in
  List.iter
    (fun m ->
      if not (List.mem m model_names) then
        usage_error "unknown model %s in --models (try: %s)" m
          (String.concat ", " model_names))
    mix;
  if mix = [] then usage_error "--models must name at least one model";
  (match mem_budget_mb with
  | None -> ()
  | Some mb when mb > 0 -> Buffer_pool.set_budget (Some (mb * 1024 * 1024))
  | Some mb -> usage_error "--mem-budget %d must be positive" mb);
  let registry = Registry.create ~capacity ~opts:(run_opts_of config) () in
  (* Every stock model is registered (compilation is lazy — only models
     the traffic mix touches are ever built); [--models] picks the mix. *)
  let output_bufs =
    List.map
      (fun name ->
        let spec = build_model name size in
        Registry.register registry ~name ~config
          ~input_buf:(spec.Models.data_ens ^ ".value")
          ~output_buf:(spec.Models.output_ens ^ ".value")
          (fun () -> (build_model name size).Models.net);
        (name, spec.Models.output_ens ^ ".value"))
      model_names
  in
  let models = List.map (fun m -> (m, List.assoc m output_bufs)) mix in
  let sc =
    try Scenario.stock ?duration ~models scenario_name
    with Invalid_argument msg -> usage_error "%s" msg
  in
  let fleet =
    Fleet.create ~faults:sc.Scenario.fleet_faults ~watchdog_slack ~registry
      ~tenants:sc.Scenario.tenants ()
  in
  Printf.printf "fleet-sim scenario %s: %s\n" sc.Scenario.name sc.Scenario.descr;
  Printf.printf "models registered: %s  (traffic mix: %s)\n"
    (String.concat ", " model_names)
    (String.concat ", " mix);
  Printf.printf "domains %d, registry capacity %d, seed %d, horizon %.0f ms\n"
    config.Config.num_domains capacity seed (sc.Scenario.duration *. 1e3);
  (match Buffer_pool.budget () with
  | Some b ->
      Printf.printf "memory budget: %d MB (admission-controlled)\n"
        (b / (1024 * 1024))
  | None -> ());
  (match config.Config.precision with
  | `F32 -> ()
  | p ->
      Printf.printf
        "precision: %s fast paths (degraded references stay f32)\n"
        (Precision.preset_to_string p));
  print_newline ();
  let summary = Scenario.run ~seed fleet sc in
  print_string (Fleet.report fleet);
  (match Serve_metrics.slack_report (Fleet.metrics fleet) with
  | Some line -> print_string (line ^ "\n")
  | None -> ());
  Printf.printf "\n%s\n" (Scenario.summary_to_string summary);
  (* Multi-node extrapolation: independent serving replicas, rolling
     updates broadcast the hot model's parameters over the NIC. *)
  let hot = fst (List.hd models) in
  let answered = summary.Scenario.fast + summary.Scenario.degraded in
  if answered > 0 && summary.Scenario.makespan > 0.0 then begin
    let replica_rps = float_of_int answered /. summary.Scenario.makespan in
    let nodes_list =
      List.map
        (fun s ->
          match int_of_string_opt s with
          | Some n when n > 0 -> n
          | _ -> usage_error "bad node count %s in --nodes" s)
        (split_csv nodes_csv)
    in
    let nic = Machine.infiniband in
    Printf.printf
      "\nmulti-node extrapolation (%s, %s model %s, %.0f KB params):\n"
      nic.Machine.nic_name hot
      (if Fleet.update_in_flight fleet hot then "updating" else "active")
      (Fleet.param_bytes fleet hot /. 1e3);
    Printf.printf "  %-6s %14s %16s %16s\n" "nodes" "fleet req/s" "bcast (ms)"
      "rollout (ms)";
    List.iter
      (fun (p : Cluster_sim.fleet_projection) ->
        Printf.printf "  %-6d %14.0f %16.3f %16.3f\n" p.Cluster_sim.f_nodes
          p.Cluster_sim.fleet_rps
          (p.Cluster_sim.rollout_broadcast_seconds *. 1e3)
          (p.Cluster_sim.rollout_seconds *. 1e3))
      (Cluster_sim.project_fleet ~nic ~replica_rps
         ~param_bytes:(Fleet.param_bytes fleet hot)
         ~swap_seconds:0.01 ~nodes_list ())
  end;
  if summary.Scenario.unanswered > 0 then begin
    Printf.eprintf "latte: %d request(s) left unanswered\n"
      summary.Scenario.unanswered;
    exit 1
  end

let fleet_sim_cmd =
  let scenario =
    Arg.(value & opt string "chaos-rollback"
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:("Stock scenario to run: "
                   ^ String.concat ", " Scenario.names ^ "."))
  in
  let list_scenarios =
    Arg.(value & flag
         & info [ "list-scenarios" ] ~doc:"List stock scenarios and exit.")
  in
  let mix =
    Arg.(value & opt string "mlp,lenet,vgg-block"
         & info [ "models" ] ~docv:"LIST"
             ~doc:"Comma-separated models the traffic mix draws from (the \
                   first is the hot/updated one). All stock models are \
                   registered either way; only touched ones compile.")
  in
  let capacity =
    Arg.(value & opt int 4 & info [ "capacity" ] ~docv:"N"
           ~doc:"Registry LRU capacity (resident prepared pairs).")
  in
  let duration =
    Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"S"
           ~doc:"Override the scenario's arrival horizon (simulated seconds).")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S"
           ~doc:"Seed for arrivals, model mix and request features; a run is \
                 fully reproduced by its seed.")
  in
  let nodes =
    Arg.(value & opt string "1,2,4,8,16" & info [ "nodes" ] ~docv:"LIST"
           ~doc:"Node counts for the multi-node extrapolation table.")
  in
  let mem_budget =
    Arg.(value & opt (some int) None & info [ "mem-budget" ] ~docv:"MB"
           ~doc:"Process memory budget in megabytes: model admission is \
                 checked against projected buffer-pool footprints, LRU \
                 entries are evicted under pressure and requests whose model \
                 cannot fit are shed instead of over-allocating.")
  in
  Cmd.v
    (Cmd.info "fleet-sim"
       ~doc:"Serve a scripted multi-tenant chaos scenario against a model \
             fleet on a simulated clock: lazily-compiled LRU registry, \
             token-bucket admission, weighted-fair scheduling, rolling \
             updates with atomic rollback; prints the fleet report, \
             per-tenant table, event timeline and a multi-node \
             extrapolation. Exits non-zero if any request goes unanswered.")
    Term.(const fleet_sim $ scenario $ list_scenarios $ mix $ size_term
          $ config_term $ capacity $ duration $ seed $ nodes
          $ watchdog_slack_arg $ mem_budget)

(* ------------------------------------------------------------------ *)
(* bench                                                               *)
(* ------------------------------------------------------------------ *)

let bench model size config verify =
  let spec = build_model model size in
  let fresh () = (build_model model size).Models.net in
  let net = spec.Models.net in
  let prog, _report = compile_with ~verify config net in
  let exec = Executor.prepare ~opts:(run_opts_of config) prog in
  if Executor.domains exec > 1 then
    Printf.printf "executing parallel loops on %d domains\n"
      (Executor.domains exec);
  let rng = Rng.create 7 in
  List.iter
    (fun (e : Ensemble.t) ->
      match e.kind with
      | Ensemble.Data ->
          Tensor.fill_uniform rng
            (Executor.lookup exec (e.name ^ ".value"))
            ~lo:0.0 ~hi:1.0
      | _ -> ())
    (Net.ensembles net);
  Tensor.fill (Executor.lookup exec "label") 0.0;
  let lf = Executor.time_run (fun () -> Executor.forward exec) in
  let lb = Executor.time_run (fun () -> Executor.backward exec) in
  let caffe_net = fresh () in
  let caffe = Caffe_like.of_net ~params_from:exec caffe_net in
  Tensor.fill_uniform rng (Caffe_like.lookup caffe "data.value") ~lo:0.0 ~hi:1.0;
  Tensor.fill (Caffe_like.lookup caffe "label") 0.0;
  let cf = Executor.time_run (fun () -> Caffe_like.forward caffe) in
  let cb = Executor.time_run (fun () -> Caffe_like.backward caffe) in
  Printf.printf "%-14s %12s %12s\n" "" "forward" "backward";
  Printf.printf "%-14s %10.2f ms %10.2f ms\n" "latte" (lf *. 1e3) (lb *. 1e3);
  Printf.printf "%-14s %10.2f ms %10.2f ms\n" "caffe-like" (cf *. 1e3) (cb *. 1e3);
  Printf.printf "%-14s %11.2fx %11.2fx\n" "speedup" (cf /. lf) (cb /. lb);
  let m = Machine.xeon_e5_2699v3 in
  Printf.printf "modeled on %s: %.2f img/s (training)\n" m.Machine.cpu_name
    (Cost_model.images_per_second m prog);
  (* --precision int8: quantize post-hoc (the rows above are the f32
     baseline on the same inputs), re-prepare, and report the quantized
     forward against it — throughput and top-1 agreement. *)
  match config.Config.precision with
  | `F32 -> ()
  | `I8 ->
      let output_buf = spec.Models.output_ens ^ ".value" in
      Executor.forward exec;
      let out_f32 =
        Tensor.copy (Executor.read_f32 exec output_buf)
      in
      let keep = [ spec.Models.label_buf; spec.Models.loss_buf; output_buf ] in
      let exec, n =
        Quantize.quantize ~feed:(fun _ -> ()) ~batches:1 ~keep exec
      in
      Executor.forward exec;
      let out_q = Executor.read_f32 exec output_buf in
      let batch = size.batch in
      let classes = Tensor.numel out_q / batch in
      let agree = ref 0 and max_delta = ref 0.0 in
      for i = 0 to batch - 1 do
        let best t =
          let b = ref 0 and bv = ref neg_infinity in
          for c = 0 to classes - 1 do
            let v = Tensor.get1 t ((i * classes) + c) in
            if v > !bv then begin bv := v; b := c end
          done;
          !b
        in
        if best out_f32 = best out_q then incr agree;
        for c = 0 to classes - 1 do
          let d =
            Float.abs
              (Tensor.get1 out_f32 ((i * classes) + c)
              -. Tensor.get1 out_q ((i * classes) + c))
          in
          if d > !max_delta then max_delta := d
        done
      done;
      let qf = Executor.time_run (fun () -> Executor.forward exec) in
      Printf.printf
        "%-14s %10.2f ms %11s  (%.2fx vs f32 forward)\n" "latte-int8"
        (qf *. 1e3) "-" (lf /. qf);
      Printf.printf
        "int8: %d buffer(s) packed, top-1 agreement %d/%d, max |delta| %.4g\n"
        n !agree batch !max_delta

let bench_cmd =
  Cmd.v
    (Cmd.info "bench" ~doc:"Time a model against the Caffe-like baseline.")
    Term.(const bench $ model_arg $ size_term $ config_term $ verify_arg)

(* ------------------------------------------------------------------ *)
(* tune                                                                *)
(* ------------------------------------------------------------------ *)

let tune_run model size config budget seed max_domains no_cache cache_dir force
    quiet =
  let budget =
    match Tuner.budget_of_string budget with
    | Some b -> b
    | None -> usage_error "unknown budget `%s' (small, medium, large)" budget
  in
  let build () = (build_model model size).Models.net in
  let log = if quiet then fun _ -> () else print_endline in
  let r =
    try
      Tuner.tune ~budget ~seed ?max_domains ~use_cache:(not no_cache)
        ?cache_dir ~force ~log ~config ~build ()
    with Failure msg | Invalid_argument msg -> usage_error "%s" msg
  in
  Printf.printf "\n=== %s: winner vs default ===\n" model;
  Printf.printf "  %-36s %8s %8s %8s\n" "group" "extent" "default" "tuned";
  List.iter
    (fun (label, extent, default_rows) ->
      let tuned =
        match Schedule.tile_for r.Tuner.winner label with
        | Some t -> string_of_int t
        | None ->
            if Schedule.fused r.Tuner.winner label then string_of_int default_rows
            else "unfused"
      in
      Printf.printf "  %-36s %8d %8d %8s\n" label extent default_rows tuned)
    r.Tuner.groups;
  (match r.Tuner.winner.Schedule.domains with
  | Some d -> Printf.printf "  %-36s %8s %8d %8d\n" "worker domains" "" 1 d
  | None -> ());
  Printf.printf "\n  schedule: %s\n" (Schedule.describe r.Tuner.winner);
  if r.Tuner.from_cache then
    Printf.printf "  resolved from tuning cache (key %s)\n"
      (Option.value ~default:"-" r.Tuner.cache_key)
  else begin
    Printf.printf "  default: %.3f ms/forward   tuned: %.3f ms/forward   speedup: %.2fx\n"
      (r.Tuner.default_seconds *. 1e3)
      (r.Tuner.tuned_seconds *. 1e3)
      (if r.Tuner.tuned_seconds > 0.0 then
         r.Tuner.default_seconds /. r.Tuner.tuned_seconds
       else 1.0);
    match r.Tuner.cache_key with
    | Some key -> Printf.printf "  cached as %s\n" key
    | None -> Printf.printf "  tuning cache disabled; winner not persisted\n"
  end

let tune_cmd =
  let budget_arg =
    Arg.(value & opt string "medium"
         & info [ "budget" ] ~docv:"B"
             ~doc:"Search budget: $(b,small), $(b,medium) or $(b,large) — \
                   scales the measured frontier, tile targets per group and \
                   median-of-k iterations.")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"K"
             ~doc:"Seed for parameter initialization and the input fill; the \
                   same seed makes repeat searches comparable.")
  in
  let max_domains_arg =
    Arg.(value & opt (some int) None
         & info [ "max-domains" ] ~docv:"N"
             ~doc:"Cap the worker-domain search (default: the host's \
                   recommended domain count; 1 skips the stage).")
  in
  let no_cache_arg =
    Arg.(value & flag
         & info [ "no-cache" ]
             ~doc:"Neither consult nor write the tuning cache.")
  in
  let cache_arg =
    Arg.(value & opt (some string) None
         & info [ "cache" ] ~docv:"DIR"
             ~doc:"Tuning-cache directory (default: LATTE_TUNE_CACHE, else \
                   the per-machine directory under the system temp dir).")
  in
  let force_arg =
    Arg.(value & flag
         & info [ "force" ]
             ~doc:"Re-tune even when a cached entry exists, overwriting it.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the search trace.")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Search for the best schedule (per-group tile sizes, fusion \
             toggles, worker domains) by cost-model-pruned measurement, and \
             persist the winner in the per-(model, machine) tuning cache \
             where compile_pair and the serving registry pick it up \
             automatically. Tuned outputs are bit-identical to the default \
             schedule's.")
    Term.(const tune_run $ model_arg $ size_term $ config_term $ budget_arg
          $ seed_arg $ max_domains_arg $ no_cache_arg $ cache_arg $ force_arg
          $ quiet_arg)

(* ------------------------------------------------------------------ *)
(* models / machines                                                   *)
(* ------------------------------------------------------------------ *)

let graph model size out =
  let spec = build_model model size in
  match out with
  | None -> print_string (Net_dot.to_dot spec.Models.net)
  | Some path ->
      Net_dot.write spec.Models.net path;
      Printf.printf "wrote %s\n" path

let graph_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the DOT document to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Export a model's ensemble graph as Graphviz DOT.")
    Term.(const graph $ model_arg $ size_term $ out)

let models_cmd =
  Cmd.v
    (Cmd.info "models" ~doc:"List available model architectures.")
    Term.(const (fun () -> List.iter print_endline model_names) $ const ())

let passes_cmd =
  let show () =
    Printf.printf "%-12s %-9s %-11s %s\n" "pass" "kind" "paper" "description";
    List.iter
      (fun (p : Pass.info) ->
        Printf.printf "%-12s %-9s %-11s %s\n" p.Pass.name
          (if p.required then "required" else "optional")
          p.Pass.paper p.Pass.description)
      (Pass_manager.passes ())
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:"List the compiler passes in execution order, with the paper \
             section each implements.")
    Term.(const show $ const ())

let machines_cmd =
  let show () =
    List.iter
      (fun m -> print_endline (Machine.describe m))
      [
        Machine.xeon_e5_2699v3;
        Machine.xeon_e5_2699v3_1core;
        Machine.xeon_phi_7110p.Machine.acc_cpu;
        Machine.cori_node;
        Machine.commodity_node;
      ]
  in
  Cmd.v
    (Cmd.info "machines" ~doc:"List the machine models used by the cost model.")
    Term.(const show $ const ())

let () =
  let info =
    Cmd.info "latte" ~version:"1.0.0"
      ~doc:"Latte DNN DSL/compiler/runtime reproduction (PLDI 2016)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ dump_ir_cmd; analyze_cmd; train_cmd; serve_sim_cmd; fleet_sim_cmd;
            bench_cmd; tune_cmd; graph_cmd; models_cmd; passes_cmd;
            machines_cmd ]))
