(* train-vgg: a closed loop of momentum-SGD steps on VGG-A at the bench
   scale. The paper's headline metric; nearly all the time is in the
   compiled conv groups, the domain pool and the solver. *)

let batch = 4
let domains = 2
let tail_p = 75.0  (* 40 steps leave 10 beyond it; a 20 s run makes about 60 *)
let input_batches = 8  (* distinct seeded batches the loop cycles through *)

let spec () = Models.vgg ~batch ~scale:Models.bench_scale
let data_buf (spec : Models.spec) = spec.Models.data_ens ^ ".value"
let probs_buf (spec : Models.spec) = spec.Models.output_ens ^ ".value"

(* Seeded images in [0, 1) and labels in [0, classes). *)
let make_batch rng ~item ~classes =
  let img = Tensor.create (Shape.create [ batch; item ]) in
  for i = 0 to (batch * item) - 1 do
    Tensor.set1 img i (Prng.float rng)
  done;
  let lab = Tensor.create (Shape.create [ batch ]) in
  for i = 0 to batch - 1 do
    Tensor.set1 lab i (float_of_int (Prng.int rng classes))
  done;
  (img, lab)

let inputs ~seed ~stream ~n (spec : Models.spec) exec =
  let data = Executor.lookup exec (data_buf spec) in
  let item = Tensor.numel data / batch in
  let classes = Tensor.numel (Executor.lookup exec (probs_buf spec)) / batch in
  let rng = Prng.create ~stream seed in
  Array.init n (fun _ -> make_batch rng ~item ~classes)

let feed lookup (spec : Models.spec) (img, lab) =
  let blit src dst = Tensor.blit ~src ~dst:(Tensor.reshape dst (Tensor.shape src)) in
  blit img (lookup (data_buf spec));
  blit lab (lookup spec.Models.label_buf)

type state = {
  spec : Models.spec;
  exec : Executor.t;
  solver : Solver.t;
  batches : (Tensor.t * Tensor.t) array;
  pass_seconds : (string * float) list;  (* from the pass manager's report *)
}

type timings = { fwd : Workload.groups; bwd : Workload.groups }

let step tr ?(parent = Trace.none) ~timings st k =
  Trace.span tr ~parent "step" @@ fun sp ->
  let prog = Executor.program st.exec in
  Trace.span tr ~parent:sp "step.feed" (fun _ ->
      feed (Executor.lookup st.exec) st.spec st.batches.(k mod Array.length st.batches));
  Trace.span tr ~parent:sp "exec.forward" (fun _ ->
      match timings with
      | Some t ->
          Workload.add_sections t.fwd st.spec prog.Program.forward
            (Executor.forward_timed st.exec)
      | None -> Executor.forward st.exec);
  Trace.span tr ~parent:sp "exec.backward" (fun _ ->
      match timings with
      | Some t ->
          Workload.add_sections t.bwd st.spec prog.Program.backward
            (Executor.backward_timed st.exec)
      | None -> Executor.backward st.exec);
  Trace.span tr ~parent:sp "solver.update" (fun _ -> Solver.update st.solver);
  Float.is_finite (Tensor.sum (Executor.lookup st.exec st.spec.Models.loss_buf))

(* Compile, code-generate, build the solver and run one warm-up step:
   everything before the first timed step. *)
let setup tr ~seed =
  Trace.span tr "setup" @@ fun root ->
  let spec = spec () in
  let prog, report =
    Trace.span tr ~parent:root "compiler" (fun _ ->
        Pass_manager.run ~seed (Host.config ~domains ~precision:`F32) spec.Models.net)
  in
  let exec =
    Trace.span tr ~parent:root "codegen" (fun _ ->
        Executor.prepare ~opts:(Host.run_opts ~domains) prog)
  in
  Host.check_executor exec ~domains ~precision:"f32";
  let solver = Solver.create Solver.Sgd exec in
  let st =
    { spec; exec; solver;
      batches = inputs ~seed ~stream:1 ~n:input_batches spec exec;
      pass_seconds =
        List.filter_map
          (fun (o : Pass_manager.outcome) ->
            if o.Pass_manager.enabled then Some (o.Pass_manager.info.Pass.name, o.Pass_manager.seconds)
            else None)
          report.Pass_manager.outcomes }
  in
  ignore (step tr ~parent:root ~timings:None st 0);
  st

(* Copy the trained parameters into Mocha_like, the per-neuron reference
   that shares no kernel with the compiled path, run one fixed seeded
   batch through both, and compare the loss, the probabilities and every
   parameter gradient within the tolerance of the baseline tests. *)
let check ~seed st =
  let tol = 1e-3 in
  let fixed = (inputs ~seed ~stream:2 ~n:1 st.spec st.exec).(0) in
  feed (Executor.lookup st.exec) st.spec fixed;
  Executor.forward st.exec;
  Executor.backward st.exec;
  let mocha = Mocha_like.of_net ~params_from:st.exec (spec ()).Models.net in
  feed (Mocha_like.lookup mocha) st.spec fixed;
  Mocha_like.forward mocha;
  Mocha_like.backward mocha;
  let cmp name = Workload.close_within ~tol name (Executor.lookup st.exec name) (Mocha_like.lookup mocha name) in
  List.filter_map Fun.id
    (cmp st.spec.Models.loss_buf :: cmp (probs_buf st.spec)
    :: List.map (fun (p : Program.param) -> cmp p.Program.grad_buf)
         (Executor.program st.exec).Program.params)

(* The step loop runs in [segments], each followed by a set-up replica
   (see [Workload.setups]). *)
let segments = 10

let run tr ~seed ~seconds =
  let traced = Trace.enabled tr in
  let setups = Workload.setups ~traced and pass_seconds = ref [] in
  let setup tr =
    let st = setup tr ~seed in
    pass_seconds := st.pass_seconds @ !pass_seconds;
    st
  in
  let st = Workload.timed_setup setups setup tr in
  let timings = if traced then Some { fwd = Workload.groups (); bwd = Workload.groups () } else None in
  let pool_dispatches () = Option.fold ~none:0 ~some:Domain_pool.dispatches (Executor.pool st.exec) in
  let t_start = Trace.now () in
  let step_s = ref [] and bad = ref 0 and k = ref 0 and wall = ref 0.0 and dispatches = ref 0 in
  for _ = 1 to segments do
    let s0 = Trace.now () and d0 = pool_dispatches () in
    while Trace.now () -. s0 < seconds /. float_of_int segments do
      let t0 = Trace.now () in
      if not (step tr ~timings st !k) then incr bad;
      step_s := (Trace.now () -. t0) :: !step_s;
      incr k
    done;
    wall := !wall +. (Trace.now () -. s0);
    dispatches := !dispatches + pool_dispatches () - d0;
    Workload.replica setups setup
  done;
  let wall = !wall and steps = !k and dispatches = !dispatches in
  let step_s = Array.of_list (List.rev !step_s) in
  let check_failures = check ~seed st in
  let attempted = steps + 1 in
  let failed = !bad + if check_failures = [] then 0 else 1 in
  let e2e =
    [ ("setup_s", Workload.setup_s setups);
      ("ok_share", float_of_int (attempted - failed) /. float_of_int attempted);
      ("peak_rss_mb", Host.peak_rss_mb ());
      ("throughput_per_s", float_of_int (batch * steps) /. wall);
      ("latency_ms_p50", Workload.ms (Stats.median step_s));
      ("latency_ms_tail", Workload.ms (Stats.percentile step_s tail_p)) ]
  in
  let layers =
    match timings with
    | None -> []
    | Some t ->
        let v = Trace.view tr in
        let timed name = Workload.mean_ms (Trace.self_of ~since:t_start v name) in
        let prog = Executor.program st.exec in
        let fwd_ms = timed "exec.forward" and bwd_ms = timed "exec.backward" in
        let gflops dir ms = if ms = 0.0 then 0.0 else Program.flops prog dir /. (ms *. 1e6) in
        (* Per set-up mean over every set-up's report. *)
        let pass_ms name =
          let bucket p = if List.mem p Metrics.passes then p else "other" in
          let secs = List.filter_map (fun (p, x) -> if bucket p = name then Some x else None) !pass_seconds in
          Workload.ms (List.fold_left ( +. ) 0.0 secs) /. float_of_int (List.length setups.Workload.times)
        in
        let setup_ms = Workload.setup_mean_ms setups v ~until:t_start in
        List.concat
          [ [ ("compiler.total_ms", setup_ms "compiler"); ("codegen.prepare_ms", setup_ms "codegen") ];
            List.map (fun p -> ("compiler.pass." ^ p ^ "_ms", pass_ms p)) Metrics.passes;
            Workload.census [ prog ];
            [ Workload.pool_bytes [ prog ] ];
            [ ("exec.forward_ms", fwd_ms); ("exec.backward_ms", bwd_ms);
              ("exec.fwd_gflops", gflops `Forward fwd_ms);
              ("exec.bwd_gflops", gflops `Backward bwd_ms);
              ("pool.dispatches_per_step", float_of_int dispatches /. float_of_int (max 1 steps));
              ("pool.respawns", float_of_int (Executor.respawns st.exec));
              ("solver.update_ms", timed "solver.update");
              ("step.feed_ms", timed "step.feed") ];
            Workload.group_metrics t.fwd ~prefix:"exec.fwd" Metrics.fwd_groups;
            Workload.group_metrics t.bwd ~prefix:"exec.bwd" Metrics.bwd_groups ]
  in
  let notes =
    [ Printf.sprintf "train-vgg: VGG-A bench scale, batch %d, f32, %d domains, momentum SGD; %d timed steps in %.2f s"
        batch domains steps wall;
      Workload.tail_note ~what:"step time" ~p:tail_p steps;
      Printf.sprintf "train_img_per_s = throughput_per_s; step_ms_p50 = latency_ms_p50; step_ms_%s = latency_ms_tail"
        (Stats.percentile_name tail_p);
      Workload.setup_note setups ]
  in
  { Workload.e2e; layers; attempted; failed; check_failures; notes }
