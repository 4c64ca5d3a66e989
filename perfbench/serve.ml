(* serve-int8: the fleet driven on the wall clock by a seeded open loop
   of arrivals, interleaved with a closed loop of full batches. The
   driver takes its model and rates as [params], so the tests can run it
   on a small f32 model. *)

type params = {
  name : string;
  models : (string * (unit -> Models.spec)) list;  (* registry name, builder *)
  precision : Precision.preset;
  rate : float;  (* open-loop arrivals per second *)
  window : float;  (* seconds the oldest request may wait for a fuller batch *)
  limit : float;  (* latency limit in seconds; also each tenant's deadline *)
  check_sample : int;
  closed_rate : float;
      (* Nominal requests per second that size the closed loop's fixed
         request count to about the rest of the run; not a measurement. *)
}

let batch = 8
let tail_p = 95.0  (* 200 requests leave 10 beyond it; a 20 s run makes about 450 *)
let open_share = 0.75  (* share of the run spent in the open loop *)

let int8_params =
  let block () = Models.vgg_first_block ~batch ~scale:Models.bench_scale in
  { name = "serve-int8"; models = [ ("vgg-block", block) ]; precision = `I8; rate = 30.0;
    window = 250e-3; limit = 1.0; check_sample = 200; closed_rate = 80.0 }

(* Three tenants with fair-share weights 1, 4 and 8. Buckets and queues
   are large enough that a run at the fixed rate is never refused. *)
let tenant_weights = [ ("t1", 1.0); ("t4", 4.0); ("t8", 8.0) ]
let n_tenants = List.length tenant_weights
let tenant_name t = fst (List.nth tenant_weights t)

let tenants p =
  List.map
    (fun (name, weight) ->
      { Router.name; weight; rate = 1e9; burst = 1e9; queue_cap = 4096; deadline = p.limit })
    tenant_weights

(* ---- Inputs: a pure function of the seed ------------------------- *)

type arrivals = {
  due : float array;  (* seconds after the open loop starts *)
  tenant : int array;
  model : int array;
}

let arrivals ~seed ~rate ~duration ~models =
  let gaps = Prng.create ~stream:10 seed and pick = Prng.create ~stream:11 seed in
  let rec go t acc =
    let t = t +. Prng.exponential gaps ~rate in
    if t >= duration then List.rev acc
    else
      let tenant = Prng.int pick n_tenants in
      go t ((t, tenant, Prng.int pick models) :: acc)
  in
  let l = Array.of_list (go 0.0 []) in
  { due = Array.map (fun (t, _, _) -> t) l;
    tenant = Array.map (fun (_, t, _) -> t) l;
    model = Array.map (fun (_, _, m) -> m) l }

(* Request [i]'s features, uniform in [0, 1) like the registry's int8
   calibration batches. *)
let features ~seed ~numel i =
  let rng = Prng.create ~stream:(1_000 + i) seed in
  Array.init numel (fun _ -> Prng.float rng)

(* ---- The driver --------------------------------------------------- *)

(* Wall time, or a fake one in the tests. *)
type clock = { now : unit -> float; wait_until : float -> unit }

let wall_clock =
  let wait_until t =
    let d = t -. Trace.now () in
    if d > 2e-3 then Unix.sleepf (d -. 1e-3);
    while Trace.now () < t do () done
  in
  { now = Trace.now; wait_until }

type pending = { idx : int; fid : int; due : float; submitted : float; span : int; model : int }

type driver = {
  p : params;
  seed : int;
  clock : clock;
  tr : Trace.t;
  fleet : Fleet.t;
  pump_fn : unit -> bool;
  numel : int;
  origin : float;  (* clock reading at which the fleet clock read 0 *)
  mutable outstanding : pending list;  (* oldest first *)
  mutable failed : int;
  mutable answered : (int * int * int) list;  (* (request, fleet id, model) answered Done *)
  (* Open-loop samples, indexed by request; the closed loop's requests
     come after them and are not sampled. *)
  latency : float array;
  lag : float array;
  queue_wait : float array;
  mutable pumps : int;  (* open-loop pumps, their answers and busy time *)
  mutable pump_answers : int;
  mutable busy : float;
}

let driver ?(clock = wall_clock) ?(pump = Fleet.pump) p tr ~seed ~numel ~open_requests fleet =
  let nan () = Array.make open_requests Float.nan in
  { p; seed; clock; tr; fleet; numel; pump_fn = (fun () -> pump fleet);
    origin = clock.now () -. Fleet.now fleet; outstanding = []; failed = 0; answered = [];
    latency = nan (); lag = nan (); queue_wait = nan (); pumps = 0; pump_answers = 0; busy = 0.0 }

let sampled d idx = idx < Array.length d.latency
let model_name d m = fst (List.nth d.p.models m)

let waiting fleet id =
  match Fleet.status fleet id with Fleet.Queued | Fleet.Batched -> true | _ -> false

(* Keeps the fleet's clock on the driver's, so token buckets and
   deadlines act on real time. *)
let sync d = Fleet.advance_to d.fleet (d.clock.now () -. d.origin)

let submit d ~idx ~due ~tenant ~model =
  let features = features ~seed:d.seed ~numel:d.numel idx in
  sync d;
  let now = d.clock.now () in
  let span = Trace.open_ d.tr ~rid:idx ~at:due "request" in
  let fid =
    Trace.span d.tr ~parent:span ~rid:idx "fleet.submit" (fun _ ->
        Fleet.submit d.fleet ~tenant:(tenant_name tenant) ~model:(model_name d model) features)
  in
  if sampled d idx then d.lag.(idx) <- now -. due;
  match Fleet.status d.fleet fid with
  | Fleet.Shed | Fleet.Throttled ->
      d.failed <- d.failed + 1;
      Trace.close d.tr span
  | _ -> d.outstanding <- d.outstanding @ [ { idx; fid; due; submitted = now; span; model } ]

(* One pump; every request it answered is timed from its due time to the
   pump's end, so a stall counts against everything that fell due
   during it. *)
let pump d =
  let start = d.clock.now () in
  sync d;
  ignore (Trace.span d.tr "fleet.pump" (fun _ -> d.pump_fn ()));
  let stop = d.clock.now () in
  let still, answered = List.partition (fun r -> waiting d.fleet r.fid) d.outstanding in
  d.outstanding <- still;
  List.iter
    (fun r ->
      Trace.close d.tr ~at:stop r.span;
      let latency = stop -. r.due in
      (match Fleet.status d.fleet r.fid with
      | Fleet.Done _ when latency <= d.p.limit ->
          d.answered <- (r.idx, r.fid, r.model) :: d.answered
      | _ -> d.failed <- d.failed + 1);
      if sampled d r.idx then begin
        d.latency.(r.idx) <- latency;
        d.queue_wait.(r.idx) <- start -. r.submitted
      end)
    answered;
  if List.exists (fun r -> sampled d r.idx) answered then begin
    d.pumps <- d.pumps + 1;
    d.pump_answers <- d.pump_answers + List.length answered;
    d.busy <- d.busy +. (stop -. start)
  end

(* Submit requests [first, last) of [a] when due, taking [from] seconds
   of the schedule as now; pump when a full batch is waiting or the
   oldest request has waited the batching window. Returns once every
   one is answered. *)
let open_loop d (a : arrivals) ~first ~last ~from =
  let t0 = d.clock.now () -. from in
  let next = ref first in
  while !next < last || d.outstanding <> [] do
    let now = d.clock.now () in
    while !next < last && t0 +. a.due.(!next) <= now do
      let i = !next in
      submit d ~idx:i ~due:(t0 +. a.due.(i)) ~tenant:a.tenant.(i) ~model:a.model.(i);
      incr next
    done;
    let window_end = match d.outstanding with r :: _ -> r.due +. d.p.window | [] -> Float.infinity in
    if Fleet.queued d.fleet >= batch || (d.outstanding <> [] && now >= window_end) then pump d
    else
      let next_due = if !next < last then t0 +. a.due.(!next) else Float.infinity in
      d.clock.wait_until (Float.min next_due window_end)
  done

(* [rounds] rounds, each submitting one full batch for one model at once
   and pumping until it is answered, so every pump finds a full batch.
   [next] is the next request index. *)
let closed_chunk d ~pick ~next ~rounds =
  for _ = 1 to rounds do
    let model = !next / batch mod List.length d.p.models in
    for _ = 1 to batch do
      submit d ~idx:!next ~due:(d.clock.now ()) ~tenant:(Prng.int pick n_tenants) ~model;
      incr next
    done;
    while d.outstanding <> [] do pump d done
  done

(* ---- Set-up ------------------------------------------------------- *)

let input_buf = "data.value"
let output_buf (spec : Models.spec) = spec.Models.output_ens ^ ".value"

let entry fleet name =
  match Registry.peek (Fleet.registry fleet) name ~version:(Fleet.active_version fleet name) with
  | Some e -> e
  | None -> failwith ("perfbench: " ^ name ^ " is not resident")

(* Register and compile every model (calibrating the int8 one), then warm
   the fleet with one full batch per model. *)
let setup tr p ~seed =
  Trace.span tr "setup" @@ fun root ->
  let reg = Registry.create ~opts:(Host.run_opts ~domains:1) () in
  List.iteri
    (fun i (name, build) ->
      Registry.register reg ~name ~seed:(seed + i)
        ~config:(Host.config ~domains:1 ~precision:p.precision)
        ~input_buf ~output_buf:(output_buf (build ()))
        (fun () -> (build ()).Models.net))
    p.models;
  let precision = Precision.preset_to_string p.precision in
  List.iter
    (fun (name, _) ->
      let e = Trace.span tr ~parent:root "registry.compile" (fun _ -> Registry.get reg name ~version:0) in
      Host.check_executor e.Registry.fast ~domains:1 ~precision;
      Host.check_executor e.Registry.reference ~domains:1 ~precision:"f32")
    p.models;
  let fleet = Fleet.create ~registry:reg ~tenants:(tenants p) () in
  let numel = (entry fleet (fst (List.hd p.models))).Registry.item_numel in
  List.iteri
    (fun m (name, _) ->
      let ids =
        List.init batch (fun k ->
            Trace.span tr ~parent:root "fleet.submit" (fun _ ->
                Fleet.submit fleet ~tenant:"t8" ~model:name
                  (features ~seed:(seed + 7919) ~numel ((m * batch) + k))))
      in
      while List.exists (waiting fleet) ids do
        ignore (Trace.span tr ~parent:root "fleet.pump" (fun _ -> Fleet.pump fleet))
      done)
    p.models;
  (fleet, numel)

(* A registry keeps the pools it compiles in the process memory ledger
   ([Buffer_pool.track]) until it evicts them, so a dropped fleet's
   memory is never freed. A discarded set-up releases them. *)
let discard p (fleet, _) =
  List.iter
    (fun (name, _) ->
      let e = entry fleet name in
      List.iter
        (fun x -> Buffer_pool.release (Executor.program x).Program.buffers)
        [ e.Registry.fast; e.Registry.reference ])
    p.models

(* ---- Output checks ------------------------------------------------ *)

let finite a = Array.of_list (List.filter Float.is_finite (Array.to_list a))

let argmax a =
  let best = ref 0 in
  Array.iteri (fun i v -> if v > a.(!best) then best := i) a;
  !best

(* Recompute a seeded sample of answered requests on Mocha_like, which
   shares no kernel with the compiled path. f32 answers must match
   within 1e-3. Quantized answers must agree on the top-1 class for at
   least 99% of the sample (the int8 fidelity bound of the precision
   tests). The served weights are untrained, so the f32 softmax is
   nearly flat, and int8 rounding moves a probability by up to about
   1.7e-3: an answer whose two best f32 classes lie within [tie] of each
   other is a near-tie that either class may win. Near-ties are left
   out of the count, and at least [min_decisive] answers must remain. *)
let tie = 2e-3
let min_decisive = 100

type verdict = Agree | Disagree | Near_tie

let top1 ~served ~want =
  let best = argmax want in
  let second = ref Float.neg_infinity in
  Array.iteri (fun i v -> if i <> best && v > !second then second := v) want;
  if want.(best) -. !second < tie then Near_tie
  else if Array.length served = Array.length want && argmax served = best then Agree
  else Disagree

(* Returns (failed requests, failure messages, notes). *)
let check d =
  let answered = Array.of_list (List.rev d.answered) in
  let rng = Prng.create ~stream:13 d.seed in
  let k = min d.p.check_sample (Array.length answered) in
  for i = 0 to k - 1 do
    let j = i + Prng.int rng (Array.length answered - i) in
    let t = answered.(i) in
    answered.(i) <- answered.(j);
    answered.(j) <- t
  done;
  let sample = Array.sub answered 0 k in
  let quantized = d.p.precision <> `F32 in
  let mismatched = ref 0 and agree = ref 0 and near_ties = ref 0 in
  List.iteri
    (fun m (name, build) ->
      let spec = build () in
      let e = entry d.fleet name in
      let params_from = if quantized then e.Registry.reference else e.Registry.fast in
      let mocha = Mocha_like.of_net ~params_from spec.Models.net in
      let data = Mocha_like.lookup mocha input_buf in
      let mine = Array.of_list (List.filter (fun (_, _, mm) -> mm = m) (Array.to_list sample)) in
      (* One Mocha_like batch at a time. *)
      let n = Array.length mine in
      for c = 0 to ((n + batch - 1) / batch) - 1 do
        let chunk = Array.sub mine (c * batch) (min batch (n - (c * batch))) in
        Tensor.fill data 0.0;
        Array.iteri
          (fun row (idx, _, _) ->
            let r = Tensor.sub_left data row in
            Array.iteri (fun j v -> Tensor.set1 r j v) (features ~seed:d.seed ~numel:d.numel idx))
          chunk;
        Mocha_like.forward mocha;
        let out = Mocha_like.lookup mocha (output_buf spec) in
        Array.iteri
          (fun row (_, fid, _) ->
            let want = Tensor.to_array (Tensor.sub_left out row) in
            match Fleet.status d.fleet fid with
            | Fleet.Done { output; _ } ->
                if quantized then
                  match top1 ~served:output ~want with
                  | Agree -> incr agree
                  | Disagree -> incr mismatched
                  | Near_tie -> incr near_ties
                else if
                  Array.length output <> Array.length want
                  || Array.exists2 (fun a b -> not (Float.abs (a -. b) <= 1e-3)) output want
                then incr mismatched
            | _ -> incr mismatched)
          chunk
      done)
    d.p.models;
  let decisive = k - !near_ties in
  let msgs =
    if k = 0 then [ "no answered request to check" ]
    else if quantized then
      if decisive < min_decisive then
        [ Printf.sprintf "only %d of %d sampled answers are not near-ties; %d are needed" decisive k
            min_decisive ]
      else if float_of_int !agree < 0.99 *. float_of_int decisive then
        [ Printf.sprintf "top-1 agreement with Mocha_like f32 is %d/%d, below 99%%" !agree decisive ]
      else []
    else if !mismatched > 0 then
      [ Printf.sprintf "%d of %d sampled answers differ from Mocha_like by more than 1e-3" !mismatched k ]
    else []
  in
  let notes =
    if quantized then
      [ Printf.sprintf
          "output check: top-1 agrees with Mocha_like f32 on %d of %d sampled answers; %d near-ties (f32 top-2 margin < %g) left out"
          !agree decisive !near_ties tie ]
    else
      [ Printf.sprintf "output check: %d of %d sampled answers within 1e-3 of Mocha_like"
          (k - !mismatched) k ]
  in
  ((if msgs = [] then 0 else !mismatched), msgs, notes)

(* ---- One run ------------------------------------------------------ *)

(* Time [Executor.forward] on each resident fast executor alone, for
   the per-layer split of a pump into forward and serving overhead. The
   traced run does this after every segment, so the forwards and the
   pumps sample the same host states. *)
let forward_phase d ~seconds ~groups =
  List.iter
    (fun (name, build) ->
      let spec = build () in
      let e = entry d.fleet name in
      let input = Executor.lookup e.Registry.fast input_buf in
      for row = 0 to batch - 1 do
        Array.iteri (fun j v -> Tensor.set1 (Tensor.sub_left input row) j v)
          (features ~seed:d.seed ~numel:d.numel row)
      done;
      let prog = Executor.program e.Registry.fast in
      let t0 = Trace.now () and k = ref 0 in
      while !k < 2 || Trace.now () -. t0 < seconds /. float_of_int (List.length d.p.models) do
        Trace.span d.tr "exec.forward" (fun _ ->
            Workload.add_sections groups spec prog.Program.forward (Executor.forward_timed e.Registry.fast));
        incr k
      done)
    d.p.models

(* The open loop runs in [segments] slices, each followed by one chunk
   of the closed loop, so both sample the host across the whole run. *)
let segments = 10

let run ?clock ?pump p tr ~seed ~seconds =
  let setups = Workload.setups ~traced:(Trace.enabled tr) in
  let setup tr = setup tr p ~seed in
  let fleet, numel = Workload.timed_setup setups setup tr in
  let open_total = seconds *. open_share in
  let a = arrivals ~seed ~rate:p.rate ~duration:open_total ~models:(List.length p.models) in
  let open_requests = Array.length a.due in
  let d = driver ?clock ?pump p tr ~seed ~numel ~open_requests fleet in
  (* A fixed request count, so memory does not grow with speed. *)
  let rounds =
    max 1
      (int_of_float (seconds *. (1.0 -. open_share) *. p.closed_rate) / (batch * segments))
  in
  let slice = open_total /. float_of_int segments in
  let pick = Prng.create ~stream:12 seed and next = ref open_requests and first = ref 0 in
  let open_s = ref 0.0 and closed_s = ref 0.0 in
  let timed r f =
    let t = d.clock.now () in
    f ();
    r := !r +. (d.clock.now () -. t)
  in
  let groups = Workload.groups () in
  let t_start = Trace.now () in
  for k = 0 to segments - 1 do
    let last = ref !first in
    while !last < open_requests && a.due.(!last) < float_of_int (k + 1) *. slice do incr last done;
    timed open_s (fun () -> open_loop d a ~first:!first ~last:!last ~from:(float_of_int k *. slice));
    first := !last;
    timed closed_s (fun () -> closed_chunk d ~pick ~next ~rounds);
    Workload.replica setups ~discard:(discard p) setup;
    if Trace.enabled tr then
      forward_phase d ~seconds:(Float.min 2.0 (seconds *. 0.1) /. float_of_int segments) ~groups
  done;
  let open_s = !open_s and closed_s = !closed_s in
  let t_end = Trace.now () in
  let served = segments * rounds * batch in
  let capacity = float_of_int served /. closed_s in
  let attempted = open_requests + served in
  let check_failed, check_failures, check_notes = check d in
  let failed = d.failed + check_failed in
  let latency = finite d.latency in
  let e2e =
    [ ("setup_s", Workload.setup_s setups);
      ("ok_share", float_of_int (attempted - failed) /. float_of_int attempted);
      ("peak_rss_mb", Host.peak_rss_mb ());
      ("throughput_per_s", capacity);
      ("latency_ms_p50", Workload.ms (Stats.median latency));
      ("latency_ms_tail", Workload.ms (Stats.percentile latency tail_p)) ]
  in
  let layers =
    if not (Trace.enabled tr) then []
    else begin
      let v = Trace.view tr in
      let timed name = Trace.self_of ~since:t_start ~until:t_end v name in
      let pumps = timed "fleet.pump" in
      let fwd_ms = Workload.mean_ms (timed "exec.forward") in
      let pump_ms = Workload.mean_ms pumps in
      let reg = Registry.stats (Fleet.registry fleet) in
      let m = Fleet.metrics fleet in
      let count x = float_of_int x in
      let entries = List.map (fun (name, _) -> entry fleet name) p.models in
      let fast = List.map (fun e -> Executor.program e.Registry.fast) entries in
      let reference = List.map (fun e -> Executor.program e.Registry.reference) entries in
      let flops = List.fold_left (fun acc pr -> acc +. Program.flops pr `Forward) 0.0 fast in
      List.concat
        [ Workload.census fast;
          [ Workload.pool_bytes (fast @ reference) ];
          Workload.group_metrics groups ~prefix:"exec.fwd" Metrics.fwd_groups;
          [ ("exec.forward_ms", fwd_ms);
            ("exec.fwd_gflops",
             if fwd_ms = 0.0 then 0.0 else flops /. float_of_int (List.length p.models) /. (fwd_ms *. 1e6));
            ("fleet.submit_us", 1e3 *. Workload.mean_ms (timed "fleet.submit"));
            ("fleet.pump_ms", pump_ms);
            ("fleet.pump_ms_p99", Workload.ms (Stats.percentile pumps 99.0));
            ("fleet.forward_ms", fwd_ms);
            ("fleet.overhead_ms", pump_ms -. fwd_ms);
            ("fleet.batch_fill", count d.pump_answers /. count (max 1 (d.pumps * batch)));
            ("fleet.queue_wait_ms", Workload.mean_ms (finite d.queue_wait));
            ("gen.lag_ms_p99", Workload.ms (Stats.percentile (finite d.lag) 99.0));
            ("fleet.degraded_share",
             count (Serve_metrics.done_degraded m) /. count (max 1 (Serve_metrics.answered m)));
            ("fleet.retries", count (Serve_metrics.retries m));
            ("fleet.fast_failures", count (Serve_metrics.fast_failures m));
            ("fleet.cancelled", count (Serve_metrics.cancelled_midrun m));
            ("fleet.watchdog_fired", count (Serve_metrics.watchdog_fired m));
            ("registry.compile_ms", Workload.setup_mean_ms setups v ~until:t_start "registry.compile");
            ("registry.compiles", count reg.Registry.compiles);
            ("registry.hits", count reg.Registry.hits);
            ("registry.evictions", count reg.Registry.evictions) ] ]
    end
  in
  let notes =
    [ Printf.sprintf
        "%s: %s, batch %d, %s, 1 domain, tenants %s; open loop %.0f req/s (Poisson), window %g ms, latency limit %g ms"
        p.name (String.concat " + " (List.map fst p.models)) batch
        (Precision.preset_to_string p.precision)
        (String.concat ", " (List.map (fun (t, w) -> Printf.sprintf "%s weight %g" t w) tenant_weights))
        p.rate (Workload.ms p.window) (Workload.ms p.limit);
      Printf.sprintf "open loop: %d requests in %d slices, %.2f s, %d pumps, %.2f of a batch each, fleet busy %.0f%% of the time"
        open_requests segments open_s d.pumps
        (float_of_int d.pump_answers /. float_of_int (max 1 d.pumps))
        (100.0 *. d.busy /. open_s);
      Printf.sprintf "closed loop: %d requests in %d chunks between the slices, %.2f s"
        served segments closed_s;
      Workload.tail_note ~what:"request latency" ~p:tail_p (Array.length latency);
      Printf.sprintf "capacity_rps = throughput_per_s; latency_ms_%s = latency_ms_tail"
        (Stats.percentile_name tail_p);
      Workload.setup_note setups ]
    @ check_notes
  in
  { Workload.e2e; layers; attempted; failed; check_failures; notes }
