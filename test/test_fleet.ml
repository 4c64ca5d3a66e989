(* The multi-tenant fleet: registry lazy compilation, hash keys and LRU
   eviction with pinning; router token buckets, per-tenant queues and
   weighted-fair scheduling; fleet rolling updates with atomic swap,
   settle-window commit and instant rollback; and the chaos acceptance
   scenario — a poisoned release rolls back with zero failed tenant
   requests, on 1 and 4 domains. *)

let batch = 4
let n_inputs = 6
let n_classes = 3

let mlp_spec ?(hidden = [ 5 ]) () = Models.mlp ~batch ~n_inputs ~hidden ~n_classes

(* Registers a tiny MLP under [name] and returns its output buffer. *)
let register_mlp ?hidden ?seed registry name =
  let spec = mlp_spec ?hidden () in
  Registry.register registry ~name ?seed
    ~input_buf:(spec.Models.data_ens ^ ".value")
    ~output_buf:(spec.Models.output_ens ^ ".value")
    (fun () -> (mlp_spec ?hidden ()).Models.net);
  spec.Models.output_ens ^ ".value"

let tenant ?(name = "acme") ?(weight = 1.0) ?(rate = 1e5) ?(burst = 1e4)
    ?(queue_cap = 256) ?(deadline = 10.0) () =
  { Router.name; weight; rate; burst; queue_cap; deadline }

let features seed =
  let rng = Rng.create seed in
  Array.init n_inputs (fun _ -> Rng.float rng 1.0)

let is_done_fast ?version fleet id =
  match Fleet.status fleet id with
  | Fleet.Done d ->
      (not d.degraded)
      && (match version with None -> true | Some v -> d.version = v)
      && Array.for_all Float.is_finite d.output
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_lazy_compile_and_hash_key () =
  let registry = Registry.create ~capacity:4 () in
  ignore (register_mlp registry "m");
  Alcotest.(check int) "registration compiles nothing" 0
    (Registry.stats registry).Registry.compiles;
  let k = Registry.key registry "m" ~version:0 in
  Alcotest.(check bool) "key carries model and version" true
    (String.length k = String.length "m#v0@" + 12
    && String.sub k 0 5 = "m#v0@");
  let e = Registry.get registry "m" ~version:0 in
  Alcotest.(check string) "entry filed under its key" k e.Registry.key;
  Alcotest.(check int) "first get compiles" 1
    (Registry.stats registry).Registry.compiles;
  let e' = Registry.get registry "m" ~version:0 in
  Alcotest.(check bool) "second get is the same prepared pair" true (e == e');
  Alcotest.(check int) "…counted as a hit" 1 (Registry.stats registry).Registry.hits;
  Alcotest.(check int) "…not a compile" 1
    (Registry.stats registry).Registry.compiles;
  (* Another version is another key (and another parameter seed). *)
  Alcotest.(check bool) "v1 keyed separately" true
    (Registry.key registry "m" ~version:1 <> k)

let test_registry_key_depends_on_config () =
  (* Same model name under different compiler configs / run options must
     fingerprint differently — a cache hit would hand back the wrong
     code. *)
  (* Pin both sides explicitly: the default resolves domains from
     LATTE_DOMAINS, which CI sets to 4 for the whole suite. *)
  let r1 =
    Registry.create
      ~opts:(Executor.Run_opts.with_domains 1 Executor.Run_opts.default) ()
  in
  let r2 =
    Registry.create
      ~opts:(Executor.Run_opts.with_domains 4 Executor.Run_opts.default) ()
  in
  ignore (register_mlp r1 "m");
  ignore (register_mlp r2 "m");
  Alcotest.check Alcotest.(neg string) "domains in the fingerprint"
    (Registry.key r1 "m" ~version:0)
    (Registry.key r2 "m" ~version:0)

let test_registry_lru_eviction_and_pinning () =
  let registry = Registry.create ~capacity:2 () in
  ignore (register_mlp registry "a");
  ignore (register_mlp registry "b");
  ignore (register_mlp registry "c");
  let key_a = Registry.key registry "a" ~version:0 in
  ignore (Registry.get registry "a" ~version:0);
  ignore (Registry.get registry "b" ~version:0);
  ignore (Registry.get registry "c" ~version:0);
  (* a is the least recently used of the three. *)
  Alcotest.(check int) "one eviction" 1 (Registry.stats registry).Registry.evictions;
  Alcotest.(check (list string)) "a evicted" [ key_a ]
    (Registry.evicted_keys registry);
  Alcotest.(check bool) "a no longer resident" true
    (Registry.peek registry "a" ~version:0 = None);
  Alcotest.(check int) "b, c resident" 2 (Registry.stats registry).Registry.resident;
  (* Re-getting a recompiles (deterministically, same key). *)
  let e = Registry.get registry "a" ~version:0 in
  Alcotest.(check string) "same key on recompile" key_a e.Registry.key;
  Alcotest.(check int) "recompile counted" 4
    (Registry.stats registry).Registry.compiles;
  (* Pinned entries are exempt: with every resident entry pinned the
     registry over-commits rather than evicting a rollback target. *)
  let resident_before = (Registry.stats registry).Registry.resident in
  Alcotest.(check int) "at capacity" 2 resident_before;
  Registry.pin registry "a" ~version:0;
  (match Registry.peek registry "c" ~version:0 with
  | Some _ -> Registry.pin registry "c" ~version:0
  | None -> Registry.pin registry "b" ~version:0);
  ignore (register_mlp registry "d");
  ignore (Registry.get registry "d" ~version:0);
  Alcotest.(check int) "over-committed, nothing evictable" 3
    (Registry.stats registry).Registry.resident

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

let request ?(id = 0) ?(tenant = "acme") ?(model = "m") ?(arrival = 0.0)
    ?(deadline = 10.0) () =
  { Router.id; tenant; model; features = [||]; arrival; deadline }

let test_router_token_bucket_throttles () =
  let router = Router.create [ tenant ~rate:10.0 ~burst:2.0 ~queue_cap:16 () ] in
  let admit ~now id = Router.admit router ~now (request ~id ()) in
  Alcotest.(check bool) "burst of 2 admitted" true
    (admit ~now:0.0 0 = `Admitted && admit ~now:0.0 1 = `Admitted);
  Alcotest.(check bool) "third throttled" true (admit ~now:0.0 2 = `Throttled);
  (* Refill at 10 tokens/s: one token back after 100 ms. *)
  Alcotest.(check bool) "token refilled" true (admit ~now:0.1 3 = `Admitted);
  Alcotest.(check bool) "bucket empty again" true (admit ~now:0.1 4 = `Throttled)

let test_router_tenant_isolation () =
  (* A noisy tenant fills its own queue; the quiet tenant's admission is
     untouched. *)
  let router =
    Router.create
      [ tenant ~name:"noisy" ~queue_cap:2 (); tenant ~name:"quiet" ~queue_cap:2 () ]
  in
  let verdicts =
    List.init 5 (fun id ->
        Router.admit router ~now:0.0 (request ~id ~tenant:"noisy" ()))
  in
  Alcotest.(check int) "noisy sheds past its own cap" 3
    (List.length (List.filter (fun v -> v = `Shed) verdicts));
  Alcotest.(check bool) "quiet still admitted" true
    (Router.admit router ~now:0.0 (request ~id:9 ~tenant:"quiet" ()) = `Admitted);
  Alcotest.(check int) "noisy queue at cap" 2 (Router.queue_length router "noisy")

let test_router_weighted_fair_select () =
  let router =
    Router.create
      [ tenant ~name:"small" ~weight:1.0 (); tenant ~name:"big" ~weight:3.0 () ]
  in
  for id = 0 to 7 do
    let tname = if id mod 2 = 0 then "small" else "big" in
    Alcotest.(check bool) "admitted" true
      (Router.admit router ~now:0.0 (request ~id ~tenant:tname ()) = `Admitted)
  done;
  let served = Hashtbl.create 4 in
  let rec go () =
    match Router.select router ~batch_of:(fun _ -> 1) with
    | None -> ()
    | Some (_, reqs) ->
        List.iter
          (fun (r : Router.request) ->
            Hashtbl.replace served r.Router.tenant
              (1 + Option.value ~default:0 (Hashtbl.find_opt served r.Router.tenant)))
          reqs;
        go ()
  in
  go ();
  (* 8 single-request batches at weights 1:3 — the 3x tenant gets 3x the
     service until its queue runs dry. *)
  Alcotest.(check int) "big served all 4" 4
    (Option.value ~default:0 (Hashtbl.find_opt served "big"));
  Alcotest.(check int) "small served all 4" 4
    (Option.value ~default:0 (Hashtbl.find_opt served "small"));
  (* Normalized service ends equal-ish: 4/1 vs 4/3 — the small tenant
     paid 3x per request. *)
  Alcotest.(check (float 1e-9)) "small charged 4.0" 4.0 (Router.norm router "small");
  Alcotest.(check (float 1e-9)) "big charged 4/3" (4.0 /. 3.0)
    (Router.norm router "big")

let test_router_batch_fills_across_tenants () =
  let router =
    Router.create [ tenant ~name:"a" (); tenant ~name:"b" ~weight:2.0 () ]
  in
  List.iter
    (fun (id, tname, model) ->
      ignore (Router.admit router ~now:0.0 (request ~id ~tenant:tname ~model ())))
    [ (0, "a", "x"); (1, "a", "x"); (2, "b", "x"); (3, "b", "y") ];
  (* All norms start at 0, so declaration order breaks the tie: a's head
     names model x. Filling alternates by normalized service (a charges
     1, b charges 1/2) and stops at b's y-head — per-tenant FIFO order
     is never violated. *)
  match Router.select router ~batch_of:(fun _ -> 4) with
  | None -> Alcotest.fail "expected a batch"
  | Some (model, reqs) ->
      Alcotest.(check string) "model named by fair head" "x" model;
      Alcotest.(check (list int)) "x requests batched, FIFO per tenant"
        [ 0; 2; 1 ]
        (List.map (fun (r : Router.request) -> r.Router.id) reqs);
      Alcotest.(check int) "b's y-head still queued" 1
        (Router.queue_length router "b")

(* ------------------------------------------------------------------ *)
(* Fleet basics                                                        *)
(* ------------------------------------------------------------------ *)

let make_fleet ?(domains = 1) ?(capacity = 4) ?settle_forwards ?faults
    ?(tenants = [ tenant () ]) models =
  let registry =
    Registry.create ~capacity
      ~opts:(Executor.Run_opts.with_domains domains Executor.Run_opts.default)
      ()
  in
  let outs = List.map (fun name -> register_mlp registry name) models in
  let fleet = Fleet.create ?settle_forwards ?faults ~registry ~tenants () in
  (fleet, outs)

let test_fleet_serves_fast () =
  let fleet, _ = make_fleet [ "m" ] in
  let ids =
    List.init batch (fun i ->
        Fleet.submit fleet ~tenant:"acme" ~model:"m" (features i))
  in
  Fleet.drain fleet;
  List.iter
    (fun id ->
      Alcotest.(check bool) "fast Done on v0" true
        (is_done_fast ~version:0 fleet id))
    ids;
  Alcotest.(check int) "all answered" 0 (Fleet.unanswered fleet);
  Alcotest.(check int) "one batch, one forward" 1 (Fleet.forwards fleet);
  Alcotest.(check int) "fast count" batch
    (Serve_metrics.done_fast (Fleet.metrics fleet));
  (* The lazy compile of v0 is on the event timeline. *)
  Alcotest.(check bool) "compile event recorded" true
    (List.exists
       (function Fleet.Compiled { version = 0; _ } -> true | _ -> false)
       (Fleet.events fleet))

let test_fleet_tenant_isolation_under_burst () =
  let fleet, _ =
    make_fleet
      ~tenants:
        [ tenant ~name:"noisy" ~queue_cap:4 ~burst:6.0 ~rate:1.0 ();
          tenant ~name:"quiet" ~queue_cap:8 () ]
      [ "m" ]
  in
  (* noisy bursts 8: 4 queued, 2 throttled by its bucket (burst 6), the
     rest shed by its queue — quiet's admission is untouched. *)
  let noisy =
    List.init 8 (fun i -> Fleet.submit fleet ~tenant:"noisy" ~model:"m" (features i))
  in
  let quiet =
    List.init 3 (fun i ->
        Fleet.submit fleet ~tenant:"quiet" ~model:"m" (features (100 + i)))
  in
  let count st ids =
    List.length (List.filter (fun id -> Fleet.status fleet id = st) ids)
  in
  Alcotest.(check int) "noisy throttled past its bucket" 2
    (count Fleet.Throttled noisy);
  Alcotest.(check int) "noisy shed past its queue" 2 (count Fleet.Shed noisy);
  Alcotest.(check int) "quiet fully admitted" 0
    (count Fleet.Shed quiet + count Fleet.Throttled quiet);
  Fleet.drain fleet;
  List.iter
    (fun id ->
      Alcotest.(check bool) "quiet request served" true (is_done_fast fleet id))
    quiet;
  let qm = Fleet.tenant_metrics fleet "quiet" in
  Alcotest.(check int) "quiet shed none" 0
    (Serve_metrics.shed qm + Serve_metrics.throttled qm);
  Alcotest.(check int) "noisy charged to noisy" 2
    (Serve_metrics.shed (Fleet.tenant_metrics fleet "noisy"))

let test_fleet_weighted_share_under_contention () =
  (* Both tenants flood the same model; the weight-4 tenant's requests
     are served first (lower virtual time per request), so its p95 wait
     is no worse. Coarse but deterministic: check serve order via
     completion latencies. *)
  let fleet, _ =
    make_fleet
      ~tenants:
        [ tenant ~name:"gold" ~weight:4.0 (); tenant ~name:"bronze" ~weight:1.0 () ]
      [ "m" ]
  in
  let submit tname n seed0 =
    List.init n (fun i ->
        Fleet.submit fleet ~tenant:tname ~model:"m" (features (seed0 + i)))
  in
  let gold = submit "gold" 8 0 in
  let bronze = submit "bronze" 8 100 in
  Fleet.drain fleet;
  let mean ids =
    let tot =
      List.fold_left
        (fun acc id ->
          match Fleet.status fleet id with
          | Fleet.Done d -> acc +. d.latency
          | _ -> Alcotest.fail "expected Done")
        0.0 ids
    in
    tot /. float_of_int (List.length ids)
  in
  Alcotest.(check bool) "gold waits no longer than bronze on average" true
    (mean gold <= mean bronze +. 1e-12)

(* ------------------------------------------------------------------ *)
(* Rolling updates                                                     *)
(* ------------------------------------------------------------------ *)

let run_traffic fleet ~n ~seed0 =
  let ids =
    List.init n (fun i ->
        Fleet.submit fleet ~tenant:"acme" ~model:"m" (features (seed0 + i)))
  in
  Fleet.drain fleet;
  ids

let test_rolling_update_swaps_and_commits () =
  let fleet, _ = make_fleet ~settle_forwards:2 [ "m" ] in
  let ids0 = run_traffic fleet ~n:batch ~seed0:0 in
  List.iter
    (fun id ->
      Alcotest.(check bool) "pre-update on v0" true
        (is_done_fast ~version:0 fleet id))
    ids0;
  let v = Fleet.begin_update fleet ~model:"m" ~compile_seconds:0.01 () in
  Alcotest.(check int) "first update is v1" 1 v;
  Alcotest.(check bool) "in flight" true (Fleet.update_in_flight fleet "m");
  Alcotest.(check int) "still serving v0" 0 (Fleet.active_version fleet "m");
  (* Traffic before ready_at still lands on v0. *)
  let ids_mid = run_traffic fleet ~n:batch ~seed0:50 in
  List.iter
    (fun id ->
      Alcotest.(check bool) "mid-compile traffic on v0" true
        (is_done_fast ~version:0 fleet id))
    ids_mid;
  (* Past ready_at the next pump swaps atomically; two clean forwards
     (settle_forwards = 2) commit the update. *)
  Fleet.advance fleet 0.02;
  let ids1 = run_traffic fleet ~n:(2 * batch) ~seed0:100 in
  List.iter
    (fun id ->
      Alcotest.(check bool) "post-swap traffic on v1" true
        (is_done_fast ~version:1 fleet id))
    ids1;
  Alcotest.(check int) "one swap" 1 (Fleet.swaps fleet);
  Alcotest.(check int) "no rollback" 0 (Fleet.rollbacks fleet);
  Alcotest.(check bool) "committed (not in flight)" false
    (Fleet.update_in_flight fleet "m");
  let evs = Fleet.events fleet in
  let has p = List.exists p evs in
  Alcotest.(check bool) "Update_started logged" true
    (has (function Fleet.Update_started { version = 1; _ } -> true | _ -> false));
  Alcotest.(check bool) "Swapped logged" true
    (has
       (function
         | Fleet.Swapped { from_version = 0; to_version = 1; _ } -> true
         | _ -> false));
  Alcotest.(check bool) "Committed logged" true
    (has (function Fleet.Committed { version = 1; _ } -> true | _ -> false))

let test_update_rejected_while_in_flight () =
  let fleet, _ = make_fleet [ "m" ] in
  ignore (run_traffic fleet ~n:batch ~seed0:0);
  ignore (Fleet.begin_update fleet ~model:"m" ());
  Alcotest.check_raises "second update refused"
    (Invalid_argument "Fleet.begin_update: m update already in flight") (fun () ->
      ignore (Fleet.begin_update fleet ~model:"m" ()))

(* ------------------------------------------------------------------ *)
(* The chaos acceptance scenario                                       *)
(* ------------------------------------------------------------------ *)

(* A fleet-plan poison-out naming no buffer of the model is refused at
   the model's first compile — here, its first submission — with a
   diagnostic naming the buffer, the model and the valid targets, rather
   than failing mid-drain with the batch left unanswered. *)
let test_fleet_rejects_unknown_poison_buf () =
  let registry = Registry.create () in
  ignore (register_mlp registry "classifier");
  let fleet =
    Fleet.create ~faults:(Fault.parse "poison-out:bogus.value@0") ~registry
      ~tenants:[ tenant () ] ()
  in
  match
    List.iter
      (fun i ->
        ignore (Fleet.submit fleet ~tenant:"acme" ~model:"classifier" (features i)))
      (List.init batch Fun.id);
    Fleet.drain fleet
  with
  | () -> Alcotest.fail "poison-out on an unknown buffer was accepted"
  | exception Invalid_argument msg ->
      List.iter
        (fun want ->
          Alcotest.(check bool) ("diagnostic names " ^ want) true
            (Test_util.contains msg want))
        [ "bogus.value"; "classifier"; "data.value" ]

(* Under int8 the output layer's weights are packed: NaN written there
   encodes to a finite code, so the guard would never fire and the
   weights would be silently corrupted. The fleet rejects the target at
   first compile; the same plan at f32 is a real fault that opens the
   breaker. *)
let test_fleet_rejects_packed_poison_buf () =
  let fleet_at precision =
    let registry = Registry.create () in
    let spec = mlp_spec () in
    Registry.register registry ~name:"m"
      ~config:(Config.with_flags ~precision Config.default)
      ~input_buf:(spec.Models.data_ens ^ ".value")
      ~output_buf:(spec.Models.output_ens ^ ".value")
      (fun () -> (mlp_spec ()).Models.net);
    Fleet.create ~faults:(Fault.parse "poison-out:ip_out.weights@0") ~registry
      ~tenants:[ tenant () ] ()
  in
  (match run_traffic (fleet_at `I8) ~n:batch ~seed0:0 with
  | _ -> Alcotest.fail "int8: poison-out on a packed buffer was accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "diagnostic names the packed buffer" true
        (Test_util.contains msg "ip_out.weights"));
  (* The poison lands after forward #0, so the second batch reads it. *)
  let f32 = fleet_at `F32 in
  ignore (run_traffic f32 ~n:(2 * batch) ~seed0:0);
  Alcotest.(check bool) "f32: the poisoned weights open the breaker" true
    (Breaker.state (Fleet.breaker f32 "m") = `Open);
  Alcotest.(check int) "f32: every request answered" 0 (Fleet.unanswered f32)

(* A healthy run matches its cost-model estimate section for section,
   so the slack report must show no overrun — even once the simulated
   clock is large enough that [clock - start] would round above the
   prediction. *)
let test_fleet_healthy_run_has_no_overruns () =
  let fleet, _ = make_fleet [ "m" ] in
  for i = 0 to 49 do
    Fleet.advance fleet 0.37;
    ignore (run_traffic fleet ~n:batch ~seed0:(10 * i))
  done;
  match Serve_metrics.slack_report (Fleet.metrics fleet) with
  | None -> Alcotest.fail "no slack samples recorded"
  | Some line ->
      Alcotest.(check bool) (Printf.sprintf "no overrun in %S" line) true
        (Test_util.contains line "(0 overrun(s))")

(* A rolling update ships a poisoned version: its very first fast
   forward writes NaN into the output buffer, the NaN/Inf guard fails
   the batch, the breaker (threshold 1) opens, the fleet rolls back to
   the pinned prior version and re-runs the batch there. Every tenant
   request must end Done, un-degraded, answered by the prior version —
   zero failed requests — and the timeline must carry the rollback
   timestamp. Exercised on 1 and 4 domains. *)
let chaos_poisoned_update_rolls_back ~domains () =
  let fleet, outs = make_fleet ~domains ~settle_forwards:4 [ "m" ] in
  let out_buf = List.hd outs in
  let ids0 = run_traffic fleet ~n:batch ~seed0:0 in
  let v1 =
    Fleet.begin_update fleet ~model:"m"
      ~faults:(Fault.parse (Printf.sprintf "poison-out:%s@0" out_buf))
      ~compile_seconds:0.005 ()
  in
  Fleet.advance fleet 0.01;
  let ids1 = run_traffic fleet ~n:batch ~seed0:200 in
  (* The swap landed, the poisoned forward tripped the guard, and the
     batch was transparently re-run on v0. *)
  Alcotest.(check int) "swap landed" 1 (Fleet.swaps fleet);
  Alcotest.(check int) "exactly one rollback" 1 (Fleet.rollbacks fleet);
  Alcotest.(check int) "serving the prior version again" 0
    (Fleet.active_version fleet "m");
  List.iter
    (fun id ->
      Alcotest.(check bool) "answered fast by the restored v0" true
        (is_done_fast ~version:0 fleet id))
    (ids0 @ ids1);
  Alcotest.(check int) "zero failed tenant requests" 0 (Fleet.unanswered fleet);
  let m = Fleet.metrics fleet in
  Alcotest.(check int) "nothing timed out, shed or throttled" 0
    (Serve_metrics.timeout m + Serve_metrics.shed m + Serve_metrics.throttled m);
  Alcotest.(check int) "no degraded answers either" 0
    (Serve_metrics.done_degraded m);
  (* The rollback is on the timeline, timestamped at/after the swap. *)
  let swap_at =
    List.find_map
      (function Fleet.Swapped { at; _ } -> Some at | _ -> None)
      (Fleet.events fleet)
  in
  let rollback_at =
    List.find_map
      (function
        | Fleet.Rolled_back { from_version; to_version; at; _ }
          when from_version = v1 && to_version = 0 ->
            Some at
        | _ -> None)
      (Fleet.events fleet)
  in
  (match (swap_at, rollback_at) with
  | Some s, Some r ->
      Alcotest.(check bool) "rollback timestamped at/after the swap" true (r >= s)
  | _ -> Alcotest.fail "swap/rollback missing from the timeline");
  (* The new version's breaker opened before the rollback. *)
  Alcotest.(check bool) "breaker opening recorded for v1" true
    (List.exists
       (function
         | Fleet.Breaker_moved { version; transition; _ } ->
             version = v1 && transition.Breaker.to_state = `Open
         | _ -> false)
       (Fleet.events fleet));
  (* And the per-tenant report shows the rollback timestamp. *)
  let report = Fleet.report fleet in
  Alcotest.(check bool) "report carries the rollback line" true
    (Test_util.contains report
       (Printf.sprintf "rolled back v%d -> v0" v1));
  Alcotest.(check bool) "active breaker closed again" true
    (Breaker.state (Fleet.breaker fleet "m") = `Closed)

let test_chaos_rollback_1_domain () = chaos_poisoned_update_rolls_back ~domains:1 ()
let test_chaos_rollback_4_domains () = chaos_poisoned_update_rolls_back ~domains:4 ()

(* ------------------------------------------------------------------ *)
(* Scenario suite                                                      *)
(* ------------------------------------------------------------------ *)

let scenario_fleet sc =
  let registry = Registry.create ~capacity:4 () in
  let out_a = register_mlp registry "model-a" in
  let out_b = register_mlp ~hidden:[ 4 ] registry "model-b" in
  let fleet =
    Fleet.create ~faults:sc.Scenario.fleet_faults ~registry
      ~tenants:sc.Scenario.tenants ()
  in
  (fleet, [ ("model-a", out_a); ("model-b", out_b) ])

let stock_models () =
  let registry = Registry.create ~capacity:4 () in
  let out_a = register_mlp registry "model-a" in
  let out_b = register_mlp ~hidden:[ 4 ] registry "model-b" in
  ignore registry;
  [ ("model-a", out_a); ("model-b", out_b) ]

let test_scenario_run_is_reproducible () =
  let models = stock_models () in
  let sc = { (Scenario.stock ~models "steady") with Scenario.duration = 0.05 } in
  let run () =
    let fleet, _ = scenario_fleet sc in
    Scenario.run ~seed:11 fleet sc
  in
  let s1 = run () and s2 = run () in
  Alcotest.(check string) "same seed, same summary"
    (Scenario.summary_to_string s1) (Scenario.summary_to_string s2);
  Alcotest.(check bool) "traffic actually flowed" true (s1.Scenario.requests > 0);
  Alcotest.(check int) "every request answered" 0 s1.Scenario.unanswered;
  Alcotest.(check int) "accounting closes" s1.Scenario.requests
    (s1.Scenario.fast + s1.Scenario.degraded + s1.Scenario.timeouts
    + s1.Scenario.shed + s1.Scenario.throttled)

let test_scenario_chaos_rollback_end_to_end () =
  let models = stock_models () in
  let sc =
    { (Scenario.stock ~models "chaos-rollback") with Scenario.duration = 0.1 }
  in
  let sc =
    { sc with
      Scenario.updates =
        List.map
          (fun u -> { u with Scenario.at = 0.03 })
          sc.Scenario.updates }
  in
  let fleet, _ = scenario_fleet sc in
  let s = Scenario.run ~seed:3 fleet sc in
  Alcotest.(check int) "the bad release rolled back" 1 s.Scenario.rollbacks;
  Alcotest.(check int) "after exactly one swap" 1 s.Scenario.swaps;
  Alcotest.(check int) "zero unanswered" 0 s.Scenario.unanswered;
  Alcotest.(check int) "hot model back on v0" 0
    (Fleet.active_version fleet "model-a");
  Alcotest.(check bool) "rollback on the timeline" true
    (Test_util.contains (Fleet.report fleet) "rolled back v1 -> v0")

let test_scenario_validate_rejects_bad_specs () =
  let models = stock_models () in
  let sc = Scenario.stock ~models "steady" in
  let expect_reject label mutate =
    Alcotest.(check bool) label true
      (try
         Scenario.validate (mutate sc);
         false
       with Invalid_argument _ -> true)
  in
  expect_reject "unknown stream tenant" (fun sc ->
      { sc with
        Scenario.streams =
          [ { Scenario.s_tenant = "ghost"; rate = 1.0; mix = [ ("model-a", 1.0) ] } ] });
  expect_reject "empty burst window" (fun sc ->
      { sc with
        Scenario.bursts =
          [ { Scenario.b_tenant = "free"; from_s = 0.1; until_s = 0.1;
              multiplier = 2.0 } ] });
  expect_reject "update outside horizon" (fun sc ->
      { sc with
        Scenario.updates =
          [ { Scenario.u_model = "model-a"; at = 9.0; compile_seconds = 0.01;
              u_faults = Fault.none } ] })

(* ------------------------------------------------------------------ *)
(* Mid-run cancellation, self-healing, memory pressure                  *)
(* ------------------------------------------------------------------ *)

(* The chaos-hang acceptance scenario on a 2-domain pool: a hung section
   trips the watchdog (batch cancelled mid-run, workers recycled) and a
   worker domain is killed (slot respawned, batch re-run) — and every
   request is still answered. *)
let test_scenario_chaos_hang_end_to_end () =
  let registry =
    Registry.create ~capacity:4
      ~opts:(Executor.Run_opts.with_domains 2 Executor.Run_opts.default)
      ()
  in
  let out_a = register_mlp registry "model-a" in
  let out_b = register_mlp ~hidden:[ 4 ] registry "model-b" in
  let models = [ ("model-a", out_a); ("model-b", out_b) ] in
  let sc = Scenario.stock ~models "chaos-hang" in
  (* The stock plan kills worker 1 at a fixed pool dispatch number; the
     suite shares pools across tests, so re-anchor the kill to the
     current dispatch count to keep it meaningful here. *)
  let sc =
    { sc with
      Scenario.fleet_faults =
        Fault.parse
          (Printf.sprintf "hang-section:ip@0.05,kill-domain:1@%d"
             (Domain_pool.dispatches (Domain_pool.shared 2) + 40)) }
  in
  let fleet =
    Fleet.create ~faults:sc.Scenario.fleet_faults ~registry
      ~tenants:sc.Scenario.tenants ()
  in
  let s = Scenario.run ~seed:7 fleet sc in
  Alcotest.(check int) "zero unanswered" 0 s.Scenario.unanswered;
  let m = Fleet.metrics fleet in
  Alcotest.(check bool) "watchdog fired" true
    (Serve_metrics.watchdog_fired m >= 1);
  Alcotest.(check bool) "a batch was cancelled mid-run" true
    (Serve_metrics.cancelled_midrun m >= 1);
  Alcotest.(check bool) "workers respawned" true (Serve_metrics.respawns m >= 1);
  Alcotest.(check bool) "cancellation on the timeline" true
    (List.exists
       (function Fleet.Cancelled_batch _ -> true | _ -> false)
       (Fleet.events fleet));
  Alcotest.(check bool) "respawn on the timeline" true
    (List.exists
       (function Fleet.Respawned _ -> true | _ -> false)
       (Fleet.events fleet));
  Alcotest.(check bool) "slack distribution collected" true
    (Serve_metrics.slack_samples m >= 1)

(* Admission under a process memory budget: a model whose footprint
   cannot fit is refused at submit (shed, counted as a memory shed and
   charged to its tenant), resident models keep serving, and lifting the
   budget lets the refused model compile and serve. *)
let test_memory_budget_sheds_oversized_model () =
  Fun.protect ~finally:(fun () -> Buffer_pool.set_budget None) @@ fun () ->
  let registry = Registry.create ~capacity:4 () in
  ignore (register_mlp registry "m");
  ignore (register_mlp ~hidden:[ 64 ] registry "big");
  let fleet = Fleet.create ~registry ~tenants:[ tenant () ] () in
  let ids =
    List.init batch (fun i ->
        Fleet.submit fleet ~tenant:"acme" ~model:"m" (features i))
  in
  Fleet.drain fleet;
  List.iter
    (fun id ->
      Alcotest.(check bool) "resident model serves" true (is_done_fast fleet id))
    ids;
  Buffer_pool.set_budget (Some (Buffer_pool.live_bytes () + 1024));
  let refused = Fleet.submit fleet ~tenant:"acme" ~model:"big" (features 99) in
  Alcotest.(check bool) "oversized model shed at admission" true
    (Fleet.status fleet refused = Fleet.Shed);
  Alcotest.(check bool) "counted as a memory shed" true
    (Serve_metrics.mem_shed (Fleet.metrics fleet) >= 1);
  Alcotest.(check bool) "charged to the tenant" true
    (Serve_metrics.mem_shed (Fleet.tenant_metrics fleet "acme") >= 1);
  let still = Fleet.submit fleet ~tenant:"acme" ~model:"m" (features 100) in
  Fleet.drain fleet;
  Alcotest.(check bool) "resident model still serves under budget" true
    (is_done_fast fleet still);
  Buffer_pool.set_budget None;
  let fits = Fleet.submit fleet ~tenant:"acme" ~model:"big" (features 101) in
  Fleet.drain fleet;
  Alcotest.(check bool) "served once the budget lifts" true
    (is_done_fast fleet fits);
  Alcotest.(check int) "every request answered" 0 (Fleet.unanswered fleet)

(* An injected allocation spike is charged to the process ledger on the
   next pump and lands on the event timeline as memory pressure. *)
let test_alloc_spike_emits_memory_pressure () =
  let registry = Registry.create ~capacity:4 () in
  ignore (register_mlp registry "m");
  let fleet =
    Fleet.create ~faults:(Fault.parse "alloc-spike:4096") ~registry
      ~tenants:[ tenant () ] ()
  in
  let before = Buffer_pool.live_bytes () in
  let ids =
    List.init batch (fun i ->
        Fleet.submit fleet ~tenant:"acme" ~model:"m" (features i))
  in
  Fleet.drain fleet;
  List.iter
    (fun id ->
      Alcotest.(check bool) "spike does not fail requests" true
        (is_done_fast fleet id))
    ids;
  Alcotest.(check bool) "spike charged to the ledger" true
    (Buffer_pool.live_bytes () >= before + 4096);
  Alcotest.(check bool) "pressure event on the timeline" true
    (List.exists
       (function
         | Fleet.Mem_pressure { bytes; _ } -> bytes = 4096
         | _ -> false)
       (Fleet.events fleet))

(* ------------------------------------------------------------------ *)
(* Fleet extrapolation                                                 *)
(* ------------------------------------------------------------------ *)

let test_project_fleet_extrapolation () =
  let nic = Machine.infiniband in
  Alcotest.(check (float 1e-12)) "single node broadcasts nothing" 0.0
    (Cluster_sim.broadcast_seconds nic ~nodes:1 ~bytes:1e6);
  (* log2 rounds: 8 nodes = 3 full-payload transfers. *)
  let one = Cluster_sim.broadcast_seconds nic ~nodes:2 ~bytes:1e6 in
  Alcotest.(check (float 1e-12)) "binomial tree rounds" (3.0 *. one)
    (Cluster_sim.broadcast_seconds nic ~nodes:8 ~bytes:1e6);
  match
    Cluster_sim.project_fleet ~nic ~replica_rps:1000.0 ~param_bytes:4e6
      ~swap_seconds:0.01
      ~stragglers:[ (1, 2.0) ]
      ~nodes_list:[ 1; 4 ] ()
  with
  | [ p1; p4 ] ->
      Alcotest.(check (float 1e-9)) "one node, one replica" 1000.0
        p1.Cluster_sim.fleet_rps;
      (* Node 1 runs at half speed: 3 * 1000 + 500. *)
      Alcotest.(check (float 1e-9)) "straggler loses only its own share" 3500.0
        p4.Cluster_sim.fleet_rps;
      Alcotest.(check bool) "rollout includes broadcast + per-node swaps" true
        (p4.Cluster_sim.rollout_seconds
         > p4.Cluster_sim.rollout_broadcast_seconds +. 0.039)
  | _ -> Alcotest.fail "expected two projections"

let suite =
  [
    Alcotest.test_case "registry: lazy compile + hash key" `Quick
      test_registry_lazy_compile_and_hash_key;
    Alcotest.test_case "registry: key depends on run opts" `Quick
      test_registry_key_depends_on_config;
    Alcotest.test_case "registry: LRU eviction + pinning" `Quick
      test_registry_lru_eviction_and_pinning;
    Alcotest.test_case "router: token bucket throttles" `Quick
      test_router_token_bucket_throttles;
    Alcotest.test_case "router: per-tenant queues isolate" `Quick
      test_router_tenant_isolation;
    Alcotest.test_case "router: weighted-fair select" `Quick
      test_router_weighted_fair_select;
    Alcotest.test_case "router: batch fills across tenants" `Quick
      test_router_batch_fills_across_tenants;
    Alcotest.test_case "fleet: serves fast" `Quick test_fleet_serves_fast;
    Alcotest.test_case "fleet: tenant isolation under burst" `Quick
      test_fleet_tenant_isolation_under_burst;
    Alcotest.test_case "fleet: weighted share under contention" `Quick
      test_fleet_weighted_share_under_contention;
    Alcotest.test_case "update: swaps and commits" `Quick
      test_rolling_update_swaps_and_commits;
    Alcotest.test_case "update: rejected while in flight" `Quick
      test_update_rejected_while_in_flight;
    Alcotest.test_case "fleet: unknown poison-out buffer rejected" `Quick
      test_fleet_rejects_unknown_poison_buf;
    Alcotest.test_case "fleet: packed poison-out buffer rejected" `Quick
      test_fleet_rejects_packed_poison_buf;
    Alcotest.test_case "fleet: healthy run has no slack overruns" `Quick
      test_fleet_healthy_run_has_no_overruns;
    Alcotest.test_case "chaos: poisoned update rolls back (1 domain)" `Quick
      test_chaos_rollback_1_domain;
    Alcotest.test_case "chaos: poisoned update rolls back (4 domains)" `Quick
      test_chaos_rollback_4_domains;
    Alcotest.test_case "scenario: reproducible by seed" `Quick
      test_scenario_run_is_reproducible;
    Alcotest.test_case "scenario: chaos-rollback end to end" `Quick
      test_scenario_chaos_rollback_end_to_end;
    Alcotest.test_case "scenario: validation" `Quick
      test_scenario_validate_rejects_bad_specs;
    Alcotest.test_case "scenario: chaos-hang end to end" `Quick
      test_scenario_chaos_hang_end_to_end;
    Alcotest.test_case "memory budget sheds oversized model" `Quick
      test_memory_budget_sheds_oversized_model;
    Alcotest.test_case "alloc spike emits memory pressure" `Quick
      test_alloc_spike_emits_memory_pressure;
    Alcotest.test_case "cluster: fleet projection" `Quick
      test_project_fleet_extrapolation;
  ]
