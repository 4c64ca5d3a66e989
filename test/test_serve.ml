(* The serving runtime: deadlines answered without executing, admission
   control shedding at the high-water mark, the circuit breaker's
   Closed -> Open -> Half_open -> Closed lifecycle with degradation to
   the reference executor, retry with backoff, the Executor.lookup
   diagnostic, and the degradation numeric contract. *)

let batch = 4
let n_inputs = 6
let n_classes = 3

let mlp_spec () = Models.mlp ~batch ~n_inputs ~hidden:[ 5 ] ~n_classes

(* A single-model server is a one-tenant fleet over a one-model
   registry, compiled eagerly so creation-time checks fire here. *)
let make_server ?(queue_capacity = 16) ?(failure_threshold = 1) ?(cooldown = 1e-3)
    ?(max_retries = 0) ?faults ?watchdog_slack ?(config = Config.default) () =
  let spec = mlp_spec () in
  let registry =
    Registry.create
      ~opts:
        (Executor.Run_opts.with_domains config.Config.num_domains
           Executor.Run_opts.default)
      ()
  in
  Registry.register registry ~name:"mlp" ~seed:5 ~config
    ~input_buf:(spec.Models.data_ens ^ ".value")
    ~output_buf:(spec.Models.output_ens ^ ".value")
    (fun () -> (mlp_spec ()).Models.net);
  let server =
    Fleet.create ~failure_threshold ~cooldown ~max_retries ?faults
      ?watchdog_slack ~registry
      ~tenants:
        [ { Router.name = "client"; weight = 1.0; rate = Float.infinity;
            burst = Float.infinity; queue_cap = queue_capacity;
            deadline = Float.infinity } ]
      ()
  in
  ignore (Fleet.batch_size server "mlp");
  server

let submit ?deadline server features =
  Fleet.submit server ~tenant:"client" ~model:"mlp" ?deadline features

let entry server = Registry.get (Fleet.registry server) "mlp" ~version:0

let features seed =
  let rng = Rng.create seed in
  Array.init n_inputs (fun _ -> Rng.float rng 1.0)

let submit_batch ?deadline server ~seed0 =
  List.init batch (fun i -> submit server ?deadline (features (seed0 + i)))

let is_done ?degraded server id =
  match Fleet.status server id with
  | Fleet.Done d -> (
      match degraded with None -> true | Some want -> d.degraded = want)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Deadlines and shedding                                              *)
(* ------------------------------------------------------------------ *)

let test_expired_request_times_out_without_running () =
  let server = make_server () in
  let expired = submit server ~deadline:1e-3 (features 1) in
  let live = submit server ~deadline:1.0 (features 2) in
  Fleet.advance server 2e-3;
  (* Past the first deadline: pump answers it Timeout and runs only the
     live request. *)
  Alcotest.(check bool) "pump ran a batch" true (Fleet.pump server);
  Alcotest.(check bool) "expired -> Timeout" true
    (Fleet.status server expired = Fleet.Timeout);
  Alcotest.(check bool) "live -> Done" true (is_done server live);
  Alcotest.(check int) "one forward only" 1 (Fleet.forwards server);
  Alcotest.(check int) "unanswered drained" 0 (Fleet.unanswered server);
  (* A batch of only expired requests never executes. *)
  let server = make_server () in
  let ids = submit_batch server ~seed0:10 ~deadline:1e-3 in
  Fleet.advance server 1.0;
  Alcotest.(check bool) "nothing live to run" false (Fleet.pump server);
  List.iter
    (fun id ->
      Alcotest.(check bool) "all Timeout" true
        (Fleet.status server id = Fleet.Timeout))
    ids;
  Alcotest.(check int) "no forward executed" 0 (Fleet.forwards server)

let test_queue_overflow_sheds () =
  let server = make_server ~queue_capacity:5 () in
  let ids = List.init 8 (fun i -> submit server (features i)) in
  let shed, kept =
    List.partition (fun id -> Fleet.status server id = Fleet.Shed) ids
  in
  Alcotest.(check int) "3 shed at the high-water mark" 3 (List.length shed);
  Alcotest.(check int) "5 admitted" 5 (List.length kept);
  (* Shed requests are answered immediately; admitted ones still run. *)
  Fleet.drain server;
  List.iter
    (fun id -> Alcotest.(check bool) "admitted -> Done" true (is_done server id))
    kept;
  Alcotest.(check int) "metrics agree" 3
    (Serve_metrics.shed (Fleet.metrics server));
  Alcotest.(check int) "every request answered" 0 (Fleet.unanswered server)

(* ------------------------------------------------------------------ *)
(* Breaker lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let breaker_states server =
  List.map
    (fun (tr : Breaker.transition) -> (tr.Breaker.from_state, tr.Breaker.to_state))
    (Breaker.transitions (Fleet.breaker server "mlp"))

let test_breaker_opens_after_k_failures_and_recovers () =
  let spec = mlp_spec () in
  let out_buf = spec.Models.output_ens ^ ".value" in
  (* K = 2: forwards #0 and #1 poisoned, so the second consecutive NaN
     batch opens the breaker. *)
  let faults =
    Fault.plan
      [
        Fault.Poison_output { buf = out_buf; at_forward = 0 };
        Fault.Poison_output { buf = out_buf; at_forward = 1 };
      ]
  in
  let server = make_server ~failure_threshold:2 ~cooldown:1e-3 ~faults () in
  (* Batch 1: NaN detected (streak 1 < 2) -> degraded answer, still Closed. *)
  let b1 = submit_batch server ~seed0:100 in
  ignore (Fleet.pump server);
  List.iter
    (fun id ->
      Alcotest.(check bool) "batch1 degraded" true (is_done ~degraded:true server id))
    b1;
  Alcotest.(check bool) "still Closed after one failure" true
    (Breaker.state (Fleet.breaker server "mlp") = `Closed);
  (* Batch 2: second consecutive NaN -> breaker opens. *)
  let b2 = submit_batch server ~seed0:200 in
  ignore (Fleet.pump server);
  List.iter
    (fun id ->
      Alcotest.(check bool) "batch2 degraded" true (is_done ~degraded:true server id))
    b2;
  Alcotest.(check bool) "Open after K failures" true
    (Breaker.state (Fleet.breaker server "mlp") = `Open);
  (* Batch 3 within the cooldown: served by the reference path without
     touching the fast executor. *)
  let fwd_before = Fleet.forwards server in
  let b3 = submit_batch server ~seed0:300 in
  ignore (Fleet.pump server);
  List.iter
    (fun id ->
      Alcotest.(check bool) "open: degraded" true (is_done ~degraded:true server id))
    b3;
  Alcotest.(check int) "fast path not probed while Open" fwd_before
    (Fleet.forwards server);
  (* After the cooldown the next batch is the half-open probe; the
     poison plan is exhausted, so it succeeds and the breaker closes. *)
  Fleet.advance server 2e-3;
  let b4 = submit_batch server ~seed0:400 in
  ignore (Fleet.pump server);
  List.iter
    (fun id ->
      Alcotest.(check bool) "probe batch served fast" true
        (is_done ~degraded:false server id))
    b4;
  Alcotest.(check bool) "Closed again" true
    (Breaker.state (Fleet.breaker server "mlp") = `Closed);
  Alcotest.(check bool) "full lifecycle recorded" true
    (breaker_states server
    = [
        (`Closed, `Open);
        (`Open, `Half_open);
        (`Half_open, `Closed);
      ]);
  Alcotest.(check int) "zero unanswered" 0 (Fleet.unanswered server)

let test_retry_recovers_transient_failure () =
  let spec = mlp_spec () in
  let faults =
    Fault.plan
      [ Fault.Poison_output
          { buf = spec.Models.output_ens ^ ".value"; at_forward = 0 } ]
  in
  (* Threshold 3 keeps the breaker Closed through the failure; one retry
     re-runs the batch, whose forward (#1) is clean. *)
  let server = make_server ~failure_threshold:3 ~max_retries:1 ~faults () in
  let ids = submit_batch server ~seed0:500 in
  ignore (Fleet.pump server);
  List.iter
    (fun id ->
      Alcotest.(check bool) "answered by the fast path" true
        (is_done ~degraded:false server id))
    ids;
  Alcotest.(check int) "one retry recorded" 1
    (Serve_metrics.retries (Fleet.metrics server));
  Alcotest.(check int) "two forwards (attempt + retry)" 2 (Fleet.forwards server);
  Alcotest.(check bool) "breaker never opened" true
    (Breaker.transitions (Fleet.breaker server "mlp") = [])

(* ------------------------------------------------------------------ *)
(* Degradation numeric contract                                        *)
(* ------------------------------------------------------------------ *)

let outputs_of server ids =
  List.map
    (fun id ->
      match Fleet.status server id with
      | Fleet.Done d -> d.output
      | s -> Alcotest.failf "request %d not Done but %s" id (Fleet.status_name s))
    ids

let max_abs_diff a b =
  let m = ref 0.0 in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
  !m

let test_degraded_matches_fast_within_tol () =
  (* The same requests served twice from identically seeded servers:
     once healthy (fast path), once forced onto the reference path by a
     first-forward poison with threshold 1. *)
  let healthy = make_server () in
  let h_ids = submit_batch healthy ~seed0:900 in
  ignore (Fleet.pump healthy);
  let spec = mlp_spec () in
  let faults =
    Fault.plan
      [ Fault.Poison_output
          { buf = spec.Models.output_ens ^ ".value"; at_forward = 0 } ]
  in
  let degraded = make_server ~failure_threshold:1 ~faults () in
  let d_ids = submit_batch degraded ~seed0:900 in
  ignore (Fleet.pump degraded);
  List.iter2
    (fun h d ->
      Alcotest.(check bool) "healthy answer is fast" true
        (is_done ~degraded:false healthy h);
      Alcotest.(check bool) "faulted answer is degraded" true
        (is_done ~degraded:true degraded d))
    h_ids d_ids;
  (* Under a reduced-precision preset (LATTE_PRECISION) the fast path
     is quantized while degraded answers stay f32, so the contract
     widens from float-rounding to the quantization step. *)
  let tol = if (entry healthy).Registry.quantized then 2e-2 else 1e-4 in
  List.iter2
    (fun fast_out deg_out ->
      let diff = max_abs_diff fast_out deg_out in
      Alcotest.(check bool)
        (Printf.sprintf "degraded matches fast within %g (diff %g)" tol diff)
        true (diff <= tol))
    (outputs_of healthy h_ids) (outputs_of degraded d_ids);
  (* And directly against an independently prepared unoptimized
     executor: the reference the differential tests trust. *)
  let _, ref_exec =
    Pipeline.compile_pair ~seed:5 Config.default (fun () -> (mlp_spec ()).Models.net)
  in
  let input = Executor.lookup ref_exec "data.value" in
  Tensor.fill input 0.0;
  List.iteri
    (fun i seed ->
      let row = Tensor.sub_left input i in
      Array.iteri (fun j v -> Tensor.set1 row j v) (features seed))
    [ 900; 901; 902; 903 ];
  Executor.forward ref_exec;
  let out = Executor.lookup ref_exec (spec.Models.output_ens ^ ".value") in
  List.iteri
    (fun i deg_out ->
      let expect = Tensor.to_array (Tensor.sub_left out i) in
      Alcotest.(check bool) "degraded = standalone reference" true
        (max_abs_diff expect deg_out <= 1e-6))
    (outputs_of degraded d_ids)

(* ------------------------------------------------------------------ *)
(* Slow sections, the load generator, and the lookup diagnostic        *)
(* ------------------------------------------------------------------ *)

let test_slow_section_inflates_clock () =
  let healthy = make_server () in
  ignore (submit_batch healthy ~seed0:40);
  ignore (Fleet.pump healthy);
  let slowed =
    make_server
      ~faults:(Fault.plan [ Fault.Slow_section { label = "ip1"; factor = 10.0 } ])
      ()
  in
  ignore (submit_batch slowed ~seed0:40);
  ignore (Fleet.pump slowed);
  Alcotest.(check bool)
    (Printf.sprintf "slowed clock %g > healthy %g" (Fleet.now slowed)
       (Fleet.now healthy))
    true
    (Fleet.now slowed > Fleet.now healthy)

(* ------------------------------------------------------------------ *)
(* Mid-run cancellation and self-healing                                *)
(* ------------------------------------------------------------------ *)

(* A hung section blows past cost × slack: the watchdog cancels the
   batch mid-run, every request in it is answered Timeout, the count
   lands in cancelled-midrun (not queue timeout), and — the hang being
   one-shot — the next batch runs clean on the same server. *)
let test_watchdog_cancels_hung_section () =
  let server = make_server ~faults:(Fault.parse "hang-section:ip1@0.05") () in
  Alcotest.(check (float 1e-9)) "default slack" 8.0
    (Fleet.watchdog_slack server);
  Alcotest.(check bool) "token installed at create" true
    ((Registry.opts (Fleet.registry server)).Executor.Run_opts.token <> None);
  let ids = submit_batch server ~seed0:1 ~deadline:10.0 in
  Alcotest.(check bool) "pump ran the batch" true (Fleet.pump server);
  List.iter
    (fun id ->
      Alcotest.(check bool) "cancelled request -> Timeout" true
        (Fleet.status server id = Fleet.Timeout))
    ids;
  let m = Fleet.metrics server in
  Alcotest.(check int) "watchdog fired once" 1 (Serve_metrics.watchdog_fired m);
  Alcotest.(check int) "whole batch counted cancelled-midrun" batch
    (Serve_metrics.cancelled_midrun m);
  Alcotest.(check int) "queue-side timeouts stay distinct" 0
    (Serve_metrics.timeout m);
  Alcotest.(check bool) "slack sample recorded" true
    (Serve_metrics.slack_samples m >= 1);
  Alcotest.(check bool) "slack report rendered" true
    (Serve_metrics.slack_report m <> None);
  (* Discarded partial work must not leak into the next answer. *)
  let ids = submit_batch server ~seed0:20 ~deadline:10.0 in
  Alcotest.(check bool) "next pump runs clean" true (Fleet.pump server);
  List.iter
    (fun id ->
      Alcotest.(check bool) "clean batch Done" true (is_done server id))
    ids;
  Alcotest.(check int) "every request answered" 0 (Fleet.unanswered server)

(* The same hang with the watchdog effectively disabled: the batch is
   cancelled because every deadline in it expired mid-run — counted
   cancelled-midrun with no watchdog firing. *)
let test_deadline_expiry_cancels_midrun () =
  let server =
    make_server ~faults:(Fault.parse "hang-section:ip1@0.05")
      ~watchdog_slack:1e9 ()
  in
  let ids = submit_batch server ~seed0:1 ~deadline:0.01 in
  Alcotest.(check bool) "pump ran the batch" true (Fleet.pump server);
  List.iter
    (fun id ->
      Alcotest.(check bool) "expired mid-run -> Timeout" true
        (Fleet.status server id = Fleet.Timeout))
    ids;
  let m = Fleet.metrics server in
  Alcotest.(check int) "no watchdog" 0 (Serve_metrics.watchdog_fired m);
  Alcotest.(check int) "counted cancelled-midrun" batch
    (Serve_metrics.cancelled_midrun m);
  Alcotest.(check int) "unanswered drained" 0 (Fleet.unanswered server)

(* A short stall that trips nothing fleet-wide but outlives one
   request's deadline: the run completes, the stale request alone is
   answered Timeout and counted cancelled-midrun, the rest are Done. *)
let test_stale_request_after_completed_run () =
  let server =
    make_server ~faults:(Fault.parse "hang-section:ip1@0.002")
      ~watchdog_slack:1e9 ()
  in
  let stale = submit server ~deadline:1e-3 (features 1) in
  let live = submit server ~deadline:10.0 (features 2) in
  Alcotest.(check bool) "pump ran" true (Fleet.pump server);
  Alcotest.(check bool) "stale -> Timeout" true
    (Fleet.status server stale = Fleet.Timeout);
  Alcotest.(check bool) "live -> Done" true (is_done server live);
  let m = Fleet.metrics server in
  Alcotest.(check int) "stale counted cancelled-midrun" 1
    (Serve_metrics.cancelled_midrun m);
  Alcotest.(check int) "not a queue timeout" 0 (Serve_metrics.timeout m)

(* An injected worker-domain death mid-forward: the pool respawns the
   slot, the server re-runs the batch, and every request is answered
   fast — the death shows up only in the respawn counter. *)
let test_worker_death_heals_and_answers () =
  let config = { Config.default with Config.num_domains = 2 } in
  let server = make_server ~config () in
  (match Executor.pool ((entry server).Registry.fast) with
  | None -> Alcotest.fail "expected a pool at domains 2"
  | Some p ->
      Domain_pool.arm_kill p ~worker:1
        ~at_dispatch:(Domain_pool.dispatches p));
  let ids = submit_batch server ~seed0:1 ~deadline:10.0 in
  Alcotest.(check bool) "pump ran" true (Fleet.pump server);
  List.iter
    (fun id ->
      Alcotest.(check bool) "answered fast despite the death" true
        (is_done ~degraded:false server id))
    ids;
  let m = Fleet.metrics server in
  Alcotest.(check bool) "respawn recorded" true (Serve_metrics.respawns m >= 1);
  Alcotest.(check int) "nothing cancelled" 0 (Serve_metrics.cancelled_midrun m);
  Alcotest.(check int) "every request answered" 0 (Fleet.unanswered server)

let test_create_rejects_bad_watchdog_slack () =
  Alcotest.(check bool) "slack < 1 rejected" true
    (try
       ignore (make_server ~watchdog_slack:0.5 ());
       false
     with Invalid_argument _ -> true)

let test_load_gen_answers_everything () =
  let spec = mlp_spec () in
  let faults =
    Fault.plan
      [
        Fault.Poison_output
          { buf = spec.Models.output_ens ^ ".value"; at_forward = 2 };
        Fault.Slow_section { label = "ip1"; factor = 4.0 };
      ]
  in
  let server = make_server ~queue_capacity:8 ~cooldown:5e-4 ~faults () in
  let rng = Rng.create 13 in
  Scenario.drive rng server ~max_wait:5e-4
    (Scenario.poisson rng ~tenant:"client" ~model:"mlp" ~n:120 ~rate:50000.0
       ~deadline:2e-3);
  let m = Fleet.metrics server in
  Alcotest.(check int) "all submitted" 120 (Serve_metrics.submitted m);
  Alcotest.(check int) "every request answered" 120 (Serve_metrics.answered m);
  Alcotest.(check int) "zero unanswered" 0 (Fleet.unanswered server);
  Alcotest.(check bool) "breaker cycled back to Closed" true
    (Breaker.state (Fleet.breaker server "mlp") = `Closed);
  Alcotest.(check bool) "some requests degraded" true
    (Serve_metrics.done_degraded m > 0)

(* Int8 serving: healthy batches are answered by the quantized fast
   path and counted as quantized responses; a breaker degradation
   falls back to the f32 reference, whose answers must NOT be counted
   quantized. The report line makes the split visible. *)
let test_quantized_counter_tracks_degradation () =
  let spec = mlp_spec () in
  let out_buf = spec.Models.output_ens ^ ".value" in
  (* Forward #1 (the second pump) is poisoned; threshold 2 keeps the
     breaker Closed so only that batch degrades. *)
  let faults =
    Fault.plan [ Fault.Poison_output { buf = out_buf; at_forward = 1 } ]
  in
  let config = Config.with_flags ~precision:`I8 Config.default in
  let server = make_server ~failure_threshold:2 ~faults ~config () in
  Alcotest.(check bool) "fast path is quantized" true
    ((entry server).Registry.quantized);
  let b1 = submit_batch server ~seed0:700 in
  ignore (Fleet.pump server);
  List.iter
    (fun id ->
      Alcotest.(check bool) "healthy batch served fast" true
        (is_done ~degraded:false server id))
    b1;
  let m = Fleet.metrics server in
  Alcotest.(check int) "healthy batch counted quantized" batch
    (Serve_metrics.done_quantized m);
  let b2 = submit_batch server ~seed0:800 in
  ignore (Fleet.pump server);
  List.iter
    (fun id ->
      Alcotest.(check bool) "poisoned batch degraded to f32" true
        (is_done ~degraded:true server id))
    b2;
  Alcotest.(check int) "degraded answers not counted quantized" batch
    (Serve_metrics.done_quantized m);
  Alcotest.(check int) "degraded answers counted" batch
    (Serve_metrics.done_degraded m);
  let f32_responses =
    Serve_metrics.done_fast m + Serve_metrics.done_degraded m
    - Serve_metrics.done_quantized m
  in
  Alcotest.(check int) "f32 responses = the degraded batch" batch
    f32_responses;
  let report = Serve_metrics.report m in
  Alcotest.(check bool) "report names the precision split" true
    (Test_util.contains report
       (Printf.sprintf "precision: %d quantized response(s) + %d f32" batch
          batch));
  (* An f32 server never reports a precision line — pinned explicitly
     so the assertion holds under a LATTE_PRECISION sweep too. *)
  let plain =
    make_server ~config:(Config.with_flags ~precision:`F32 Config.default) ()
  in
  ignore (Fleet.pump server);
  let p1 = submit_batch plain ~seed0:900 in
  ignore (Fleet.pump plain);
  List.iter
    (fun id ->
      Alcotest.(check bool) "f32 server serves fast" true
        (is_done ~degraded:false plain id))
    p1;
  Alcotest.(check int) "f32 server counts zero quantized" 0
    (Serve_metrics.done_quantized (Fleet.metrics plain));
  Alcotest.(check bool) "f32 report has no precision line" false
    (Test_util.contains (Serve_metrics.report (Fleet.metrics plain))
       "precision:")

let test_lookup_unknown_buffer_diagnostic () =
  let exec = (entry (make_server ())).Registry.fast in
  Alcotest.(check bool) "Invalid_argument with names" true
    (try
       ignore (Executor.lookup exec "no.such.buffer");
       false
     with
    | Invalid_argument msg ->
        Test_util.contains msg "no.such.buffer"
        && Test_util.contains msg "data.value"
    | Not_found | Failure _ -> false)

let test_create_rejects_unknown_poison_buf () =
  Alcotest.(check bool) "poison target validated at create" true
    (try
       ignore
         (make_server
            ~faults:
              (Fault.plan
                 [ Fault.Poison_output { buf = "bogus.buf"; at_forward = 0 } ])
            ());
       false
     with Invalid_argument msg -> Test_util.contains msg "bogus.buf")

(* Percentiles interpolate linearly between order statistics (rank
   h = p/100 * (n-1)) — pinned on a known distribution so a regression
   to nearest-rank is caught exactly. *)
let test_percentile_interpolation () =
  let m = Serve_metrics.create () in
  Alcotest.(check (float 0.0)) "no latencies -> 0" 0.0
    (Serve_metrics.percentile m 95.0);
  List.iter
    (fun l -> Serve_metrics.record_done m ~degraded:false ~latency:l ())
    [ 0.003; 0.001; 0.004; 0.002 ];
  let check name want p =
    Alcotest.(check (float 1e-12)) name want (Serve_metrics.percentile m p)
  in
  check "p0 is the min" 0.001 0.0;
  check "p100 is the max" 0.004 100.0;
  (* h = 1.5: midway between the 2nd and 3rd order statistics. *)
  check "p50 interpolates the midpoint" 0.0025 50.0;
  (* h = 0.75: a quarter of the way from 1 ms to 2 ms. *)
  check "p25" 0.00175 25.0;
  (* h = 2.85: 0.003 + 0.85 * 0.001. *)
  check "p95" 0.00385 95.0;
  (* h = 2.997: pins the new p99.9 tail. *)
  check "p99.9" 0.003997 99.9;
  Alcotest.(check bool) "p outside [0, 100] rejected" true
    (try
       ignore (Serve_metrics.percentile m 100.1);
       false
     with Invalid_argument _ -> true);
  let one = Serve_metrics.create () in
  Serve_metrics.record_done one ~degraded:false ~latency:0.042 ();
  Alcotest.(check (float 1e-12)) "single sample at every p" 0.042
    (Serve_metrics.percentile one 99.9)

let suite =
  [
    Alcotest.test_case "percentiles interpolate" `Quick
      test_percentile_interpolation;
    Alcotest.test_case "expired request times out without running" `Quick
      test_expired_request_times_out_without_running;
    Alcotest.test_case "queue overflow sheds" `Quick test_queue_overflow_sheds;
    Alcotest.test_case "breaker opens after K failures and recovers" `Quick
      test_breaker_opens_after_k_failures_and_recovers;
    Alcotest.test_case "retry recovers transient failure" `Quick
      test_retry_recovers_transient_failure;
    Alcotest.test_case "degraded matches fast within 1e-4" `Quick
      test_degraded_matches_fast_within_tol;
    Alcotest.test_case "watchdog cancels hung section" `Quick
      test_watchdog_cancels_hung_section;
    Alcotest.test_case "deadline expiry cancels mid-run" `Quick
      test_deadline_expiry_cancels_midrun;
    Alcotest.test_case "stale request after completed run" `Quick
      test_stale_request_after_completed_run;
    Alcotest.test_case "worker death heals and answers" `Quick
      test_worker_death_heals_and_answers;
    Alcotest.test_case "create rejects bad watchdog slack" `Quick
      test_create_rejects_bad_watchdog_slack;
    Alcotest.test_case "slow section inflates the simulated clock" `Quick
      test_slow_section_inflates_clock;
    Alcotest.test_case "load generator answers everything" `Quick
      test_load_gen_answers_everything;
    Alcotest.test_case "quantized counter tracks degradation" `Quick
      test_quantized_counter_tracks_degradation;
    Alcotest.test_case "lookup diagnostic names the missing buffer" `Quick
      test_lookup_unknown_buffer_diagnostic;
    Alcotest.test_case "create rejects unknown poison buffer" `Quick
      test_create_rejects_unknown_poison_buf;
  ]
