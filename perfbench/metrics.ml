(* The metric names, units and directions the benchmark prints. The test
   suite checks this list against BENCHMARK.json. *)

type better = Higher | Lower

type decl = { name : string; unit : string; better : better }

let d better unit name = { name; unit; better }

(* Printed by every workload's untraced run. A step is the training
   workload's operation and a request the serving workload's. *)
let end_to_end =
  [
    d Lower "s" "setup_s";
    d Higher "ratio" "ok_share";
    d Lower "MB" "peak_rss_mb";
    d Higher "1/s" "throughput_per_s";
    d Lower "ms" "latency_ms_p50";
    d Lower "ms" "latency_ms_tail";
  ]

(* Names fixed here, not read from the program, so the metric set stays
   the same when a later change adds a pass or a layer group: those
   land in the [other] buckets. The passes named here take milliseconds
   on VGG. The rest (layout, batch-gemm, fuse, tile, assemble, simplify)
   take a few microseconds each, a few steps of the pass manager's
   microsecond clock, and are summed in [other]. *)
let passes = [ "synthesize"; "gemm"; "parallelize"; "other" ]

(* The [Models.spec.groups] labels of VGG-A and its first block; any
   other section (the MLP's included) counts as [other]. The block's
   [fc] group is only ever run forward. *)
let fwd_groups = [ "group1"; "group2"; "group3"; "group4"; "group5"; "classifier"; "fc"; "other" ]
let bwd_groups = List.filter (fun g -> g <> "fc") fwd_groups

(* Printed by every workload's traced run; a layer a workload never calls
   reads 0. *)
let per_layer =
  List.concat
    [
      [ d Lower "ms" "compiler.total_ms" ];
      List.map (fun p -> d Lower "ms" ("compiler.pass." ^ p ^ "_ms")) passes;
      [
        d Lower "count" "compiler.ir_statements";
        d Higher "count" "compiler.ir_parallel_loops";
        d Higher "count" "compiler.ir_gemms";
        d Lower "ms" "codegen.prepare_ms";
        d Lower "count" "exec.sections";
        d Lower "ms" "exec.forward_ms";
        d Lower "ms" "exec.backward_ms";
      ];
      List.map (fun g -> d Lower "ms" ("exec.fwd." ^ g ^ "_ms")) fwd_groups;
      List.map (fun g -> d Lower "ms" ("exec.bwd." ^ g ^ "_ms")) bwd_groups;
      [
        d Higher "GFLOP/s" "exec.fwd_gflops";
        d Higher "GFLOP/s" "exec.bwd_gflops";
        d Lower "count" "pool.dispatches_per_step";
        d Lower "count" "pool.respawns";
        d Lower "ms" "solver.update_ms";
        d Lower "ms" "step.feed_ms";
        d Lower "us" "fleet.submit_us";
        d Lower "ms" "fleet.pump_ms";
        d Lower "ms" "fleet.pump_ms_p99";
        d Lower "ms" "fleet.forward_ms";
        d Lower "ms" "fleet.overhead_ms";
        d Higher "ratio" "fleet.batch_fill";
        d Lower "ms" "fleet.queue_wait_ms";
        d Lower "ms" "gen.lag_ms_p99";
        d Lower "ratio" "fleet.degraded_share";
        d Lower "count" "fleet.retries";
        d Lower "count" "fleet.fast_failures";
        d Lower "count" "fleet.cancelled";
        d Lower "count" "fleet.watchdog_fired";
        d Lower "ms" "registry.compile_ms";
        d Lower "count" "registry.compiles";
        d Higher "count" "registry.hits";
        d Lower "count" "registry.evictions";
        d Lower "bytes" "mem.pool_bytes";
      ];
      (* How much worse each end-to-end metric read in the traced run
         than in the untraced run of the same seed, in percent. *)
      List.map (fun m -> d Lower "%" ("trace.overhead." ^ m.name)) end_to_end;
    ]

(* Every per-layer value in declaration order, 0 for a layer the
   workload never called. Raises on a name that is not declared. *)
let layer_values given =
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun m -> m.name = n) per_layer) then
        invalid_arg ("Metrics.layer_values: undeclared metric " ^ n))
    given;
  List.map (fun m -> (m.name, Option.value ~default:0.0 (List.assoc_opt m.name given))) per_layer

(* [(value traced - value untraced) / value untraced], signed so that a
   positive figure means the traced run read worse. *)
let overhead m ~untraced ~traced =
  if untraced = 0.0 then 0.0
  else
    let rel = (traced -. untraced) /. untraced *. 100.0 in
    match m.better with Lower -> rel | Higher -> 0.0 -. rel

(* JSON has no NaN or infinity. Such a value prints as null, and
   [non_finite] names it so the run can fail. *)
let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let non_finite values =
  List.filter_map (fun (n, v) -> if Float.is_finite v then None else Some n) values

(* The result line: [values] must name exactly the metrics of [decls]. *)
let result_line ~correct ~attempted ~failed decls values =
  let metric m =
    let v =
      match List.assoc_opt m.name values with
      | Some v -> v
      | None -> invalid_arg ("Metrics.result_line: no value for " ^ m.name)
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number v) m.unit
  in
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun m -> m.name = n) decls) then
        invalid_arg ("Metrics.result_line: undeclared metric " ^ n))
    values;
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric decls))
