(* Serving runtime: throughput/latency under faults. One synthetic
   open-loop load (simulated clock, so the numbers are deterministic and
   machine-independent) replayed against the same model under a healthy
   fast path, a straggling fused section, output poisoning that trips
   the circuit breaker, and a hard overload that exercises shedding. *)

let mlp_spec ~batch = Models.mlp ~batch ~n_inputs:64 ~hidden:[ 32 ] ~n_classes:10

(* A one-tenant fleet over a one-model registry: the tenant is never
   throttled, and its queue is the admission high-water mark. *)
let make_fleet ?faults ?(queue_cap = 64) () =
  let batch = 8 in
  let spec = mlp_spec ~batch in
  let config = Config.default in
  let registry =
    Registry.create
      ~opts:
        (Executor.Run_opts.with_domains config.Config.num_domains
           Executor.Run_opts.default)
      ()
  in
  Registry.register registry ~name:"mlp" ~seed:3 ~config
    ~input_buf:(spec.Models.data_ens ^ ".value")
    ~output_buf:(spec.Models.output_ens ^ ".value")
    (fun () -> (mlp_spec ~batch).Models.net);
  Fleet.create ?faults ~failure_threshold:1 ~cooldown:5e-3 ~max_retries:1
    ~registry
    ~tenants:
      [ { Router.name = "load"; weight = 1.0; rate = Float.infinity;
          burst = Float.infinity; queue_cap; deadline = Float.infinity } ]
    ()

let scenario ~label ?faults ?queue_cap ~rate ~deadline_ms () =
  let fleet = make_fleet ?faults ?queue_cap () in
  let rng = Rng.create 11 in
  Scenario.drive rng fleet ~max_wait:2e-3
    (Scenario.poisson rng ~tenant:"load" ~model:"mlp" ~n:400 ~rate
       ~deadline:(deadline_ms /. 1e3));
  let m = Fleet.metrics fleet in
  let transitions =
    List.length (Breaker.transitions (Fleet.breaker fleet "mlp"))
  in
  Printf.printf "%-22s %6d %6d %8d %6d %6d %9.3f %9.3f %9.3f %6d\n" label
    (Serve_metrics.submitted m)
    (Serve_metrics.done_fast m)
    (Serve_metrics.done_degraded m)
    (Serve_metrics.timeout m) (Serve_metrics.shed m)
    (Serve_metrics.percentile m 50.0 *. 1e3)
    (Serve_metrics.percentile m 95.0 *. 1e3)
    (Serve_metrics.percentile m 99.0 *. 1e3)
    transitions;
  assert (Fleet.unanswered fleet = 0)

let run () =
  Printf.printf "\n=== serving under faults (mlp, batch 8, 400 requests) ===\n";
  Printf.printf "%-22s %6s %6s %8s %6s %6s %9s %9s %9s %6s\n" "scenario" "reqs"
    "fast" "degraded" "tmout" "shed" "p50ms" "p95ms" "p99ms" "brkr";
  scenario ~label:"healthy" ~rate:2000.0 ~deadline_ms:20.0 ();
  scenario ~label:"slow-section x50"
    ~faults:(Fault.plan [ Fault.Slow_section { label = "ip1"; factor = 50.0 } ])
    ~rate:20000.0 ~deadline_ms:2.0 ();
  scenario ~label:"poison-out (breaker)"
    ~faults:
      (Fault.plan
         [ Fault.Poison_output { buf = "softmax_loss.value"; at_forward = 3 } ])
    ~rate:2000.0 ~deadline_ms:20.0 ();
  scenario ~label:"overload (shed)" ~queue_cap:16 ~rate:500000.0
    ~deadline_ms:0.5 ()
