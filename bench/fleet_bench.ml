(* Multi-tenant fleet serving: every stock chaos scenario replayed on
   the simulated clock (deterministic, machine-independent counts) over
   two small MLPs. One human row per scenario, followed by its bench
   rows; every run must answer every request. *)

let mlp_spec ~hidden () =
  Models.mlp ~batch:8 ~n_inputs:64 ~hidden ~n_classes:10

let register registry name ~hidden =
  let spec = mlp_spec ~hidden () in
  Registry.register registry ~name
    ~input_buf:(spec.Models.data_ens ^ ".value")
    ~output_buf:(spec.Models.output_ens ^ ".value")
    (fun () -> (mlp_spec ~hidden ()).Models.net);
  (name, spec.Models.output_ens ^ ".value")

let run () =
  (* Registry.register compiles under Config.default, so
     LATTE_PRECISION picks the preset the models serve at. *)
  let preset = Precision.preset_to_string Config.default.Config.precision in
  Printf.printf
    "\n=== fleet serving regimes (2 MLPs, 3 tenants, simulated clock) ===\n";
  Printf.printf "%-16s %6s %6s %8s %6s %6s %9s %5s %9s %9s\n" "scenario" "reqs"
    "fast" "degraded" "tmout" "shed" "throttled" "swaps" "rollbacks" "p95ms";
  List.iter
    (fun name ->
      let registry = Registry.create ~capacity:4 () in
      let models =
        [ register registry "model-a" ~hidden:[ 32 ];
          register registry "model-b" ~hidden:[ 16 ] ]
      in
      let sc = Scenario.stock ~models name in
      let fleet =
        Fleet.create ~faults:sc.Scenario.fleet_faults ~registry
          ~tenants:sc.Scenario.tenants ()
      in
      let s = Scenario.run ~seed:11 fleet sc in
      Printf.printf "%-16s %6d %6d %8d %6d %6d %9d %5d %9d %9.3f\n" name
        s.Scenario.requests s.Scenario.fast s.Scenario.degraded
        s.Scenario.timeouts s.Scenario.shed s.Scenario.throttled
        s.Scenario.swaps s.Scenario.rollbacks (s.Scenario.p95 *. 1e3);
      let row = Bench_common.emit ~bench:"fleet" ~case:name ~preset in
      List.iter
        (fun (metric, n) -> row ~unit:"count" metric (float_of_int n))
        [ ("requests", s.Scenario.requests); ("fast", s.Scenario.fast);
          ("degraded", s.Scenario.degraded); ("timeout", s.Scenario.timeouts);
          ("shed", s.Scenario.shed); ("throttled", s.Scenario.throttled);
          ("swaps", s.Scenario.swaps); ("rollbacks", s.Scenario.rollbacks) ];
      row ~unit:"ms" "p95_ms" (s.Scenario.p95 *. 1e3);
      row ~unit:"ms" "p999_ms" (s.Scenario.p999 *. 1e3);
      assert (s.Scenario.unanswered = 0))
    Scenario.names
