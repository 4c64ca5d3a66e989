type status =
  | Queued
  | Batched
  | Done of {
      output : float array;
      degraded : bool;
      latency : float;
      tenant : string;
      model : string;
      version : int;
    }
  | Timeout
  | Shed
  | Throttled

let status_name = function
  | Queued -> "Queued"
  | Batched -> "Batched"
  | Done _ -> "Done"
  | Timeout -> "Timeout"
  | Shed -> "Shed"
  | Throttled -> "Throttled"

type version_state = {
  version : int;
  breaker : Breaker.t;
  faults : Fault.t;
  mutable forwards : int;
  mutable seen_transitions : int;
}

type update = { next : version_state; started_at : float; ready_at : float }

type model_state = {
  m_name : string;
  mutable active : version_state;
  mutable prior : version_state option;  (* pinned, for instant rollback *)
  mutable pending : update option;
  mutable next_version : int;  (* monotone: a rolled-back number is burnt *)
  mutable settle_left : int;
  mutable history : version_state list;  (* newest first, for reports *)
}

type event =
  | Compiled of {
      model : string;
      version : int;
      key : string;
      at : float;
      wall_seconds : float;
    }
  | Update_started of {
      model : string;
      version : int;
      at : float;
      ready_at : float;
    }
  | Swapped of { model : string; from_version : int; to_version : int; at : float }
  | Rolled_back of {
      model : string;
      from_version : int;
      to_version : int;
      at : float;
      reason : string;
    }
  | Committed of { model : string; version : int; at : float }
  | Breaker_moved of {
      model : string;
      version : int;
      transition : Breaker.transition;
    }
  | Cancelled_batch of {
      model : string;
      at : float;
      requests : int;
      reason : string;
    }
  | Respawned of { model : string; at : float; workers : int; reason : string }
  | Mem_pressure of { at : float; bytes : int; evicted : int }

let event_to_string = function
  | Compiled { model; version; key; at; wall_seconds } ->
      Printf.sprintf "t=%.6fs  %s: compiled v%d as %s (%.0f ms wall)" at model
        version key (wall_seconds *. 1e3)
  | Update_started { model; version; at; ready_at } ->
      Printf.sprintf
        "t=%.6fs  %s: rolling update to v%d started (swap due t=%.6fs)" at model
        version ready_at
  | Swapped { model; from_version; to_version; at } ->
      Printf.sprintf "t=%.6fs  %s: swapped v%d -> v%d" at model from_version
        to_version
  | Rolled_back { model; from_version; to_version; at; reason } ->
      Printf.sprintf "t=%.6fs  %s: rolled back v%d -> v%d (%s)" at model
        from_version to_version reason
  | Committed { model; version; at } ->
      Printf.sprintf "t=%.6fs  %s: committed v%d" at model version
  | Breaker_moved { model; version; transition } ->
      Printf.sprintf "t=%.6fs  %s: breaker v%d %s -> %s (%s)"
        transition.Breaker.at model version
        (Breaker.state_name transition.Breaker.from_state)
        (Breaker.state_name transition.Breaker.to_state)
        transition.Breaker.reason
  | Cancelled_batch { model; at; requests; reason } ->
      Printf.sprintf "t=%.6fs  %s: cancelled batch of %d request(s) mid-run (%s)"
        at model requests reason
  | Respawned { model; at; workers; reason } ->
      Printf.sprintf "t=%.6fs  %s: respawned %d worker domain(s) (%s)" at model
        workers reason
  | Mem_pressure { at; bytes; evicted } ->
      Printf.sprintf
        "t=%.6fs  memory pressure: %d byte(s) charged, %d entry(ies) evicted"
        at bytes evicted

type t = {
  registry : Registry.t;
  router : Router.t;
  metrics : Serve_metrics.t;
  tenant_metrics : (string, Serve_metrics.t) Hashtbl.t;
  model_states : (string, model_state) Hashtbl.t;
  statuses : (int, status) Hashtbl.t;
  faults : Fault.t;  (* fleet-wide plan; versions carry their own *)
  failure_threshold : int;
  cooldown : float;
  max_retries : int;
  backoff : float;
  settle_forwards : int;
  watchdog_slack : float;
  mutable kills_armed : bool;
      (* Fleet-plan kill-domain faults are armed onto the shared pool
         the first time an executor (and thus the pool) exists. *)
  mutable events : event list;  (* newest first *)
  mutable clock : float;
  mutable forwards : int;
  mutable next_id : int;
  mutable swaps : int;
  mutable rollbacks : int;
}

let token t = (Registry.opts t.registry).Executor.Run_opts.token

let reset_token t =
  match token t with Some tok -> Ir_compile.reset_token tok | None -> ()

let cancel_run t ~reason =
  match token t with Some tok -> Ir_compile.cancel tok ~reason | None -> ()

let fresh_version t ~version ~faults =
  { version;
    breaker = Breaker.create ~threshold:t.failure_threshold ~cooldown:t.cooldown ();
    faults; forwards = 0; seen_transitions = 0 }

let create ?(failure_threshold = 1) ?(cooldown = 5e-3) ?(max_retries = 1)
    ?(backoff = 1e-4) ?(settle_forwards = 8) ?(watchdog_slack = 8.0)
    ?(faults = Fault.none) ~registry ~tenants () =
  if max_retries < 0 then
    invalid_arg (Printf.sprintf "Fleet.create: max_retries %d < 0" max_retries);
  if backoff < 0.0 then
    invalid_arg (Printf.sprintf "Fleet.create: backoff %g < 0" backoff);
  if settle_forwards <= 0 then
    invalid_arg
      (Printf.sprintf "Fleet.create: settle_forwards %d <= 0" settle_forwards);
  if watchdog_slack < 1.0 then
    invalid_arg
      (Printf.sprintf "Fleet.create: watchdog_slack %g < 1" watchdog_slack);
  let router = Router.create tenants in
  let t =
    { registry; router; metrics = Serve_metrics.create ();
      tenant_metrics = Hashtbl.create 8; model_states = Hashtbl.create 8;
      statuses = Hashtbl.create 256; faults; failure_threshold; cooldown;
      max_retries; backoff; settle_forwards; watchdog_slack;
      kills_armed = false; events = []; clock = 0.0;
      forwards = 0; next_id = 0; swaps = 0; rollbacks = 0 }
  in
  List.iter
    (fun name ->
      Hashtbl.replace t.tenant_metrics name (Serve_metrics.create ()))
    (Router.tenant_names router);
  List.iter
    (fun name ->
      let vs = fresh_version t ~version:0 ~faults:Fault.none in
      Hashtbl.replace t.model_states name
        { m_name = name; active = vs; prior = None; pending = None;
          next_version = 1; settle_left = 0; history = [ vs ] })
    (Registry.models registry);
  t

let model_state t name =
  match Hashtbl.find_opt t.model_states name with
  | Some ms -> ms
  | None ->
      invalid_arg
        (Printf.sprintf "Fleet: unknown model %s (registered: %s)" name
           (String.concat ", " (Registry.models t.registry)))

let tenant_metric t name =
  match Hashtbl.find_opt t.tenant_metrics name with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Fleet: unknown tenant %s (tenants: %s)" name
           (String.concat ", " (Router.tenant_names t.router)))

let push_event t e = t.events <- e :: t.events

let arm_kills pool plan =
  List.iter
    (fun (worker, at_dispatch) -> Domain_pool.arm_kill pool ~worker ~at_dispatch)
    (Fault.domain_kills plan)

(* A poison-out fault must target an f32 buffer of the fast program: an
   unknown name would only fail mid-batch, and NaN written into a packed
   int8 store encodes to a finite code that the output guard never sees. *)
let check_poison_targets ~model (e : Registry.entry) plan =
  let pool = (Executor.program e.Registry.fast).Program.buffers in
  List.iter
    (fun buf ->
      if Option.is_none (Executor.lookup_opt e.Registry.fast buf) then
        invalid_arg
          (Printf.sprintf
             "Fleet: poison-out buffer %s of model %s %s; it must be an f32 \
              buffer (available: %s)"
             buf model
             (if Buffer_pool.mem pool buf then
                "is stored as "
                ^ Precision.any_name (Buffer_pool.precision pool buf)
              else "does not exist")
             (String.concat ", "
                (List.filter (Buffer_pool.is_f32 pool) (Buffer_pool.names pool)))))
    (Fault.poison_output_bufs plan)

(* Registry.get with a Compiled event the first time a (model, version)
   is actually built — the observable trace of lazy compilation — after
   the fleet plan's poison-out targets are checked against it. *)
let entry t name ~version =
  let missed = Registry.peek t.registry name ~version = None in
  let e = Registry.get t.registry name ~version in
  if missed then begin
    check_poison_targets ~model:name e t.faults;
    push_event t
      (Compiled
         { model = name; version; key = e.Registry.key; at = t.clock;
           wall_seconds = e.Registry.compile_wall_seconds })
  end;
  (* Every executor in the fleet multiplexes one shared domain pool, so
     the fleet plan's kill-domain faults arm once, as soon as any
     prepared executor gives us a handle on it. *)
  (match Executor.pool e.Registry.fast with
  | Some p when not t.kills_armed ->
      arm_kills p t.faults;
      t.kills_armed <- true
  | _ -> ());
  e

let drain_breaker_events t ms vs =
  let trs = Breaker.transitions vs.breaker in
  let n = List.length trs in
  if n > vs.seen_transitions then begin
    List.iteri
      (fun i tr ->
        if i >= vs.seen_transitions then
          push_event t
            (Breaker_moved { model = ms.m_name; version = vs.version; transition = tr }))
      trs;
    vs.seen_transitions <- n
  end

(* ------------------------------------------------------------------ *)
(* Clock and admission                                                 *)
(* ------------------------------------------------------------------ *)

let now t = t.clock

let advance t dt =
  if dt < 0.0 then invalid_arg (Printf.sprintf "Fleet.advance: dt %g < 0" dt);
  t.clock <- t.clock +. dt

let advance_to t time = if time > t.clock then t.clock <- time

let submit t ~tenant ~model ?deadline features =
  let ms = model_state t model in
  let tm = tenant_metric t tenant in
  let cfg = Router.tenant t.router tenant in
  match entry t model ~version:ms.active.version with
  | exception Registry.Over_budget _ ->
      (* Memory-pressure admission control: the model cannot be made
         resident under the process budget, so the request is refused
         up front rather than queued against an executor that will
         never fit. *)
      let id = t.next_id in
      t.next_id <- id + 1;
      Serve_metrics.record_submitted t.metrics;
      Serve_metrics.record_submitted tm;
      Hashtbl.replace t.statuses id Shed;
      Serve_metrics.record_shed t.metrics;
      Serve_metrics.record_shed tm;
      Serve_metrics.record_mem_shed t.metrics;
      Serve_metrics.record_mem_shed tm;
      id
  | e ->
      if Array.length features <> e.Registry.item_numel then
        invalid_arg
          (Printf.sprintf "Fleet.submit: %d features for %s, expected %d"
             (Array.length features) model e.Registry.item_numel);
      let id = t.next_id in
      t.next_id <- id + 1;
      Serve_metrics.record_submitted t.metrics;
      Serve_metrics.record_submitted tm;
      let deadline =
        match deadline with Some d -> d | None -> t.clock +. cfg.Router.deadline
      in
      let r =
        { Router.id; tenant; model; features; arrival = t.clock; deadline }
      in
      (match Router.admit t.router ~now:t.clock r with
      | `Admitted -> Hashtbl.replace t.statuses id Queued
      | `Throttled ->
          Hashtbl.replace t.statuses id Throttled;
          Serve_metrics.record_throttled t.metrics;
          Serve_metrics.record_throttled tm
      | `Shed ->
          Hashtbl.replace t.statuses id Shed;
          Serve_metrics.record_shed t.metrics;
          Serve_metrics.record_shed tm);
      id

(* ------------------------------------------------------------------ *)
(* Rolling updates                                                     *)
(* ------------------------------------------------------------------ *)

let begin_update t ~model ?(faults = Fault.none) ?(compile_seconds = 0.05) () =
  let ms = model_state t model in
  if ms.pending <> None then
    invalid_arg (Printf.sprintf "Fleet.begin_update: %s update already in flight" model);
  if ms.prior <> None then
    invalid_arg
      (Printf.sprintf "Fleet.begin_update: %s previous update still settling" model);
  let version = ms.next_version in
  ms.next_version <- version + 1;
  (* The new version compiles now (in the background of the simulated
     timeline: traffic keeps flowing until [ready_at]) and both sides of
     the swap are pinned so LRU churn cannot evict the rollback target. *)
  let e = entry t model ~version in
  check_poison_targets ~model e faults;
  (* The new version's own plan may inject worker-domain deaths (its
     dispatch indices count on the shared pool, like the fleet plan's). *)
  (match Executor.pool e.Registry.fast with
  | Some p -> arm_kills p faults
  | None -> ());
  Registry.pin t.registry model ~version;
  Registry.pin t.registry model ~version:ms.active.version;
  let vs = fresh_version t ~version ~faults in
  ms.pending <- Some { next = vs; started_at = t.clock;
                       ready_at = t.clock +. compile_seconds };
  push_event t
    (Update_started { model; version; at = t.clock;
                      ready_at = t.clock +. compile_seconds });
  version

let swap_due t ms =
  match ms.pending with
  | Some u when u.ready_at <= t.clock ->
      let from_v = ms.active.version in
      ms.prior <- Some ms.active;
      ms.active <- u.next;
      ms.history <- u.next :: ms.history;
      ms.pending <- None;
      ms.settle_left <- t.settle_forwards;
      t.swaps <- t.swaps + 1;
      push_event t
        (Swapped { model = ms.m_name; from_version = from_v;
                   to_version = u.next.version; at = t.clock })
  | _ -> ()

let commit t ms prior_vs =
  Registry.unpin t.registry ms.m_name ~version:prior_vs.version;
  Registry.unpin t.registry ms.m_name ~version:ms.active.version;
  ms.prior <- None;
  push_event t
    (Committed { model = ms.m_name; version = ms.active.version; at = t.clock })

let rollback t ms prior_vs ~reason =
  let failed = ms.active in
  Registry.unpin t.registry ms.m_name ~version:failed.version;
  Registry.unpin t.registry ms.m_name ~version:prior_vs.version;
  ms.active <- prior_vs;
  ms.prior <- None;
  ms.settle_left <- 0;
  t.rollbacks <- t.rollbacks + 1;
  push_event t
    (Rolled_back { model = ms.m_name; from_version = failed.version;
                   to_version = prior_vs.version; at = t.clock; reason })

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

let simulated_cost t (vs : version_state) costs =
  List.fold_left
    (fun acc (label, s) ->
      acc
      +. s
         *. Fault.section_factor t.faults ~label
         *. Fault.section_factor vs.faults ~label)
    0.0 costs

let fill_inputs (e : Registry.entry) exec reqs =
  let input = Executor.lookup exec e.Registry.input_buf in
  Tensor.fill input 0.0;
  List.iteri
    (fun i (r : Router.request) ->
      let row = Tensor.sub_left input i in
      Array.iteri (fun j v -> Tensor.set1 row j v) r.Router.features)
    reqs

let output_finite (e : Registry.entry) exec ~n_live =
  let out = Executor.lookup exec e.Registry.output_buf in
  let ok = ref true in
  for i = 0 to n_live - 1 do
    let row = Tensor.sub_left out i in
    for j = 0 to Tensor.numel row - 1 do
      if not (Float.is_finite (Tensor.get1 row j)) then ok := false
    done
  done;
  !ok

(* One fast forward of the model's active version, section by section:
   the simulated clock advances per section by the modeled cost inflated
   by both the fleet-wide plan (fleet-global forward index) and the
   version's own plan (per-version index — how a chaos scenario targets
   a freshly-swapped version) and stalled by either plan's armed hangs.
   Cancellation decisions happen at section boundaries — the watchdog
   when a section overran its estimate by more than [watchdog_slack],
   the runtime deadline once every request in the batch is past due.
   Output poisonings apply after a completed forward, then the guard
   runs over the live rows. Injected worker-domain deaths surface as
   [Domain_pool.Worker_died] with the pool already healed; the forward
   re-runs transparently and bit-identically. *)
let try_fast t (vs : version_state) (e : Registry.entry) ~max_deadline ~n_live =
  let fleet_ix = t.forwards in
  t.forwards <- fleet_ix + 1;
  let version_ix = vs.forwards in
  vs.forwards <- version_ix + 1;
  let costs = Array.of_list e.Registry.fast_costs in
  let predicted =
    List.fold_left (fun acc (_, s) -> acc +. s) 0.0 e.Registry.fast_costs
  in
  (* The run's actual time is the sum of its section times, not
     [clock - start]: once the clock is large that difference rounds
     above [predicted] even when every section matched its estimate. *)
  let actual = ref 0.0 in
  let watchdog_hit = ref false in
  let on_section i label =
    let base = snd costs.(i) in
    let dt =
      (base
      *. Fault.section_factor t.faults ~label
      *. Fault.section_factor vs.faults ~label)
      +. Fault.hang_seconds t.faults ~forward:fleet_ix ~label
      +. Fault.hang_seconds vs.faults ~forward:version_ix ~label
    in
    t.clock <- t.clock +. dt;
    actual := !actual +. dt;
    if dt > base *. t.watchdog_slack then begin
      watchdog_hit := true;
      Serve_metrics.record_watchdog t.metrics;
      cancel_run t
        ~reason:
          (Printf.sprintf "watchdog: section %s ran %.3gms against a %.3gms \
                           estimate (slack %gx)"
             label (dt *. 1e3) (base *. 1e3) t.watchdog_slack)
    end
    else if t.clock > max_deadline then
      cancel_run t ~reason:"every deadline in the batch expired mid-run"
  in
  let record_slack () =
    Serve_metrics.record_slack t.metrics ~predicted ~actual:!actual
  in
  reset_token t;
  let rec go attempts =
    match Executor.forward_sections ~on_section e.Registry.fast with
    | () ->
        record_slack ();
        List.iter
          (fun buf -> Tensor.fill (Executor.lookup e.Registry.fast buf) Float.nan)
          (Fault.poison_outputs_at t.faults ~forward:fleet_ix
          @ Fault.poison_outputs_at vs.faults ~forward:version_ix);
        if output_finite e e.Registry.fast ~n_live then `Ok
        else
          `Error (Printf.sprintf "non-finite output in %s" e.Registry.output_buf)
    | exception Ir_compile.Cancelled reason ->
        record_slack ();
        `Cancelled (reason, !watchdog_hit)
    | exception Domain_pool.Worker_died workers ->
        List.iter
          (fun w ->
            Serve_metrics.record_respawn t.metrics;
            Fault.note_domain_kill t.faults ~worker:w ~at:fleet_ix;
            Fault.note_domain_kill vs.faults ~worker:w ~at:version_ix)
          workers;
        push_event t
          (Respawned
             { model = e.Registry.model; at = t.clock;
               workers = List.length workers;
               reason = "worker domain(s) died mid-forward" });
        if attempts < 4 then begin
          reset_token t;
          go (attempts + 1)
        end
        else begin
          record_slack ();
          `Error "worker domains kept dying"
        end
    | exception Fault.Injected_crash msg ->
        record_slack ();
        `Error msg
  in
  go 0

let respond t ~degraded (vs : version_state) (e : Registry.entry) exec reqs =
  let out = Executor.lookup exec e.Registry.output_buf in
  List.iteri
    (fun i (r : Router.request) ->
      (* A request whose deadline passed while the batch ran gets the
         runtime timeout: the answer exists but is stale by contract. *)
      if t.clock > r.Router.deadline then begin
        Hashtbl.replace t.statuses r.Router.id Timeout;
        Serve_metrics.record_cancelled t.metrics;
        Serve_metrics.record_cancelled (tenant_metric t r.Router.tenant)
      end
      else begin
        let row = Tensor.sub_left out i in
        let output = Array.init (Tensor.numel row) (Tensor.get1 row) in
        let latency = t.clock -. r.Router.arrival in
        Hashtbl.replace t.statuses r.Router.id
          (Done { output; degraded; latency; tenant = r.Router.tenant;
                  model = r.Router.model; version = vs.version });
        let quantized = (not degraded) && e.Registry.quantized in
        Serve_metrics.record_done t.metrics ~quantized ~degraded ~latency ();
        Serve_metrics.record_done (tenant_metric t r.Router.tenant) ~quantized
          ~degraded ~latency ()
      end)
    reqs

let run_reference t (vs : version_state) (e : Registry.entry) reqs =
  Serve_metrics.record_degraded_batch t.metrics;
  (* A previous batch may have left the shared token cancelled; every
     executor in the fleet checks it. *)
  reset_token t;
  fill_inputs e e.Registry.reference reqs;
  Executor.forward e.Registry.reference;
  t.clock <- t.clock +. simulated_cost t vs e.Registry.ref_costs;
  respond t ~degraded:true vs e e.Registry.reference reqs

(* A cancelled batch discards its partial work: the fast program's
   non-parameter buffers are repacked clean, and after a watchdog firing
   the shared pool's workers are preemptively recycled — a real hang
   would have left them wedged. The whole batch is answered [Timeout]. *)
let cancel_batch t (e : Registry.entry) ~watchdog ~reason reqs =
  Executor.scrub e.Registry.fast;
  push_event t
    (Cancelled_batch
       { model = e.Registry.model; at = t.clock;
         requests = List.length reqs; reason });
  if watchdog then begin
    match Executor.pool e.Registry.fast with
    | Some p ->
        let n = Domain_pool.respawn_workers p in
        if n > 0 then begin
          for _ = 1 to n do Serve_metrics.record_respawn t.metrics done;
          push_event t
            (Respawned
               { model = e.Registry.model; at = t.clock; workers = n;
                 reason = "post-watchdog worker recycle" })
        end
    | None -> ()
  end;
  List.iter
    (fun (r : Router.request) ->
      Hashtbl.replace t.statuses r.Router.id Timeout;
      Serve_metrics.record_cancelled t.metrics;
      Serve_metrics.record_cancelled (tenant_metric t r.Router.tenant))
    reqs

(* Run one batch against the model's active version. A fast failure
   inside an update's settle window (prior version still pinned) rolls
   the model back as soon as the new version's breaker opens, and the
   batch is re-run on the restored version — the tenants never see the
   bad release. Outside that window a failed batch is retried with
   backoff while the breaker trusts the fast path, then degraded to the
   version's reference executor. *)
let rec run_on_active t ms reqs =
  let vs = ms.active in
  let e = entry t ms.m_name ~version:vs.version in
  let n_live = List.length reqs in
  let max_deadline =
    List.fold_left
      (fun acc (r : Router.request) -> Float.max acc r.Router.deadline)
      Float.neg_infinity reqs
  in
  if not (Breaker.allow_fast vs.breaker ~now:t.clock) then
    run_reference t vs e reqs
  else begin
    drain_breaker_events t ms vs;  (* allow_fast may have half-opened *)
    let probing = Breaker.state vs.breaker = `Half_open in
    fill_inputs e e.Registry.fast reqs;
    let rec attempt k =
      match try_fast t vs e ~max_deadline ~n_live with
      | `Ok ->
          Breaker.on_success vs.breaker ~now:t.clock;
          drain_breaker_events t ms vs;
          (match ms.prior with
          | Some prior_vs ->
              ms.settle_left <- ms.settle_left - 1;
              if ms.settle_left <= 0 then commit t ms prior_vs
          | None -> ());
          respond t ~degraded:false vs e e.Registry.fast reqs
      | `Cancelled (reason, watchdog) ->
          (* Not a correctness failure: the breaker state is untouched
             and there is no retry — the batch is already past due. *)
          cancel_batch t e ~watchdog ~reason reqs
      | `Error reason ->
          Serve_metrics.record_fast_failure t.metrics;
          Breaker.on_failure vs.breaker ~now:t.clock ~reason;
          drain_breaker_events t ms vs;
          (match ms.prior with
          | Some prior_vs when Breaker.state vs.breaker = `Open ->
              (* The freshly-swapped version just lost the fleet's
                 trust: roll back and re-run this batch on the restored
                 executor. *)
              rollback t ms prior_vs ~reason;
              run_on_active t ms reqs
          | _ ->
              if (not probing) && k < t.max_retries
                 && Breaker.state vs.breaker = `Closed
              then begin
                Serve_metrics.record_retry t.metrics;
                t.clock <- t.clock +. (t.backoff *. (2.0 ** float_of_int k));
                attempt (k + 1)
              end
              else run_reference t vs e reqs)
    in
    attempt 0
  end

(* ------------------------------------------------------------------ *)
(* The scheduling step                                                 *)
(* ------------------------------------------------------------------ *)

let expire_due t =
  List.iter
    (fun (r : Router.request) ->
      Hashtbl.replace t.statuses r.Router.id Timeout;
      Serve_metrics.record_timeout t.metrics;
      Serve_metrics.record_timeout (tenant_metric t r.Router.tenant))
    (Router.expire t.router ~now:t.clock)

(* An armed alloc-spike fault lands here: the external allocation is
   charged to the process ledger and the registry immediately evicts
   LRU entries to get back under the budget — observable memory
   pressure, not silent over-commit. *)
let apply_alloc_spikes t =
  let bytes = Fault.alloc_spike_due t.faults in
  if bytes > 0 then begin
    Buffer_pool.charge_external bytes;
    let evicted = Registry.enforce_budget t.registry in
    push_event t (Mem_pressure { at = t.clock; bytes; evicted })
  end

let shed_batch t reqs =
  List.iter
    (fun (r : Router.request) ->
      Hashtbl.replace t.statuses r.Router.id Shed;
      Serve_metrics.record_shed t.metrics;
      Serve_metrics.record_mem_shed t.metrics;
      let tm = tenant_metric t r.Router.tenant in
      Serve_metrics.record_shed tm;
      Serve_metrics.record_mem_shed tm)
    reqs

let pump t =
  apply_alloc_spikes t;
  List.iter
    (fun name -> swap_due t (model_state t name))
    (Registry.models t.registry);
  expire_due t;
  let batch_of model =
    (* Under extreme memory pressure the model may not be admissible at
       all; 1 is a safe batch floor — the batch is shed below. *)
    match entry t model ~version:(model_state t model).active.version with
    | e -> e.Registry.batch
    | exception Registry.Over_budget _ -> 1
  in
  match Router.select t.router ~batch_of with
  | None -> false
  | Some (model, reqs) ->
      List.iter
        (fun (r : Router.request) -> Hashtbl.replace t.statuses r.Router.id Batched)
        reqs;
      Serve_metrics.record_batch t.metrics;
      (try run_on_active t (model_state t model) reqs
       with Registry.Over_budget _ -> shed_batch t reqs);
      true

let drain t =
  while Router.total_queued t.router > 0 do
    ignore (pump t)
  done

(* ------------------------------------------------------------------ *)
(* Observers                                                           *)
(* ------------------------------------------------------------------ *)

let status t id =
  match Hashtbl.find_opt t.statuses id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Fleet.status: unknown request id %d" id)

let unanswered t =
  Hashtbl.fold
    (fun _ s acc -> match s with Queued | Batched -> acc + 1 | _ -> acc)
    t.statuses 0

let metrics t = t.metrics
let tenant_metrics t name = tenant_metric t name
let registry t = t.registry
let router t = t.router
let faults t = t.faults
let forwards t = t.forwards
let watchdog_slack t = t.watchdog_slack
let swaps t = t.swaps
let rollbacks t = t.rollbacks
let events t = List.rev t.events

let active_version t model = (model_state t model).active.version
let breaker t model = (model_state t model).active.breaker
let update_in_flight t model =
  let ms = model_state t model in
  ms.pending <> None || ms.prior <> None

let oldest_wait t = Router.oldest_wait t.router ~now:t.clock
let queued t = Router.total_queued t.router

let batch_size t model =
  (entry t model ~version:(model_state t model).active.version).Registry.batch

let item_numel t model =
  (entry t model ~version:(model_state t model).active.version).Registry.item_numel

let param_bytes t model =
  (entry t model ~version:(model_state t model).active.version).Registry.param_bytes

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let report t =
  let b = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "fleet: %d model(s), %d tenant(s), registry %s"
    (List.length (Registry.models t.registry))
    (List.length (Router.tenant_names t.router))
    (Registry.stats_to_string (Registry.stats t.registry));
  List.iter
    (fun name ->
      let ms = model_state t name in
      line "model %-12s active v%d  breaker %s%s" name ms.active.version
        (Breaker.to_string ms.active.breaker)
        (match (ms.pending, ms.prior) with
        | Some u, _ -> Printf.sprintf "  (update to v%d in flight)" u.next.version
        | _, Some p -> Printf.sprintf "  (settling over prior v%d)" p.version
        | None, None -> ""))
    (Registry.models t.registry);
  Buffer.add_string b (Serve_metrics.report t.metrics);
  line "per-tenant:";
  line "  %-10s %6s %6s %8s %6s %6s %9s %9s %9s %8s" "tenant" "subm" "fast"
    "degraded" "tmout" "shed" "throttled" "p95ms" "p99.9ms" "shed%";
  List.iter
    (fun name ->
      let m = tenant_metric t name in
      let subm = Serve_metrics.submitted m in
      let refused = Serve_metrics.shed m + Serve_metrics.throttled m in
      line "  %-10s %6d %6d %8d %6d %6d %9d %9.3f %9.3f %8.1f" name subm
        (Serve_metrics.done_fast m)
        (Serve_metrics.done_degraded m)
        (Serve_metrics.timeout m) (Serve_metrics.shed m)
        (Serve_metrics.throttled m)
        (Serve_metrics.percentile m 95.0 *. 1e3)
        (Serve_metrics.percentile m 99.9 *. 1e3)
        (if subm = 0 then 0.0 else 100.0 *. float_of_int refused /. float_of_int subm))
    (Router.tenant_names t.router);
  (match events t with
  | [] -> line "timeline: empty"
  | evs ->
      line "timeline:";
      List.iter (fun e -> line "  %s" (event_to_string e)) evs);
  (match Fault.events t.faults with
  | [] -> ()
  | fes ->
      List.iter (fun (e : Fault.event) -> line "[fault] %s" e.Fault.what) fes);
  List.iter
    (fun name ->
      let ms = model_state t name in
      List.iter
        (fun vs ->
          List.iter
            (fun (e : Fault.event) ->
              line "[fault %s v%d] %s" ms.m_name vs.version e.Fault.what)
            (Fault.events vs.faults))
        (List.rev ms.history))
    (Registry.models t.registry);
  Buffer.contents b

