type burst = {
  b_tenant : string;
  from_s : float;
  until_s : float;
  multiplier : float;
}

type stream = {
  s_tenant : string;
  rate : float;
  mix : (string * float) list;
}

type update_plan = {
  u_model : string;
  at : float;
  compile_seconds : float;
  u_faults : Fault.t;
}

type t = {
  name : string;
  descr : string;
  duration : float;
  tenants : Router.tenant list;
  streams : stream list;
  diurnal_amplitude : float;
  diurnal_period : float;
  bursts : burst list;
  updates : update_plan list;
  fleet_faults : Fault.t;
  max_wait : float;
}

type summary = {
  scenario : string;
  requests : int;
  fast : int;
  degraded : int;
  timeouts : int;
  shed : int;
  throttled : int;
  unanswered : int;
  swaps : int;
  rollbacks : int;
  p50 : float;
  p95 : float;
  p999 : float;
  makespan : float;
}

let validate sc =
  if sc.duration <= 0.0 then
    invalid_arg (Printf.sprintf "Scenario %s: duration %g <= 0" sc.name sc.duration);
  if sc.streams = [] then invalid_arg (Printf.sprintf "Scenario %s: no streams" sc.name);
  if sc.diurnal_amplitude < 0.0 || sc.diurnal_amplitude >= 1.0 then
    invalid_arg
      (Printf.sprintf "Scenario %s: diurnal amplitude %g outside [0, 1)" sc.name
         sc.diurnal_amplitude);
  if sc.diurnal_amplitude > 0.0 && sc.diurnal_period <= 0.0 then
    invalid_arg (Printf.sprintf "Scenario %s: diurnal period %g <= 0" sc.name
                   sc.diurnal_period);
  let tenant_names = List.map (fun (c : Router.tenant) -> c.Router.name) sc.tenants in
  List.iter
    (fun st ->
      if not (List.mem st.s_tenant tenant_names) then
        invalid_arg
          (Printf.sprintf "Scenario %s: stream tenant %s not in tenant set" sc.name
             st.s_tenant);
      if st.rate <= 0.0 then
        invalid_arg
          (Printf.sprintf "Scenario %s: stream %s rate %g <= 0" sc.name st.s_tenant
             st.rate);
      if st.mix = [] then
        invalid_arg (Printf.sprintf "Scenario %s: stream %s has no model mix" sc.name
                       st.s_tenant);
      List.iter
        (fun (m, w) ->
          if w <= 0.0 then
            invalid_arg
              (Printf.sprintf "Scenario %s: stream %s model %s weight %g <= 0"
                 sc.name st.s_tenant m w))
        st.mix)
    sc.streams;
  List.iter
    (fun b ->
      if not (List.mem b.b_tenant tenant_names) then
        invalid_arg
          (Printf.sprintf "Scenario %s: burst tenant %s not in tenant set" sc.name
             b.b_tenant);
      if b.multiplier < 1.0 then
        invalid_arg
          (Printf.sprintf "Scenario %s: burst multiplier %g < 1" sc.name b.multiplier);
      if b.until_s <= b.from_s then
        invalid_arg
          (Printf.sprintf "Scenario %s: empty burst window [%g, %g)" sc.name b.from_s
             b.until_s))
    sc.bursts;
  List.iter
    (fun u ->
      if u.at < 0.0 || u.at >= sc.duration then
        invalid_arg
          (Printf.sprintf "Scenario %s: update of %s at %g outside [0, %g)" sc.name
             u.u_model u.at sc.duration);
      if u.compile_seconds <= 0.0 then
        invalid_arg
          (Printf.sprintf "Scenario %s: update compile time %g <= 0" sc.name
             u.compile_seconds))
    sc.updates

(* Instantaneous arrival rate of one tenant stream: the base rate under
   the fleet-wide diurnal sinusoid, multiplied by any burst window the
   tenant is inside. *)
let rate_at sc st ~now =
  let diurnal =
    if sc.diurnal_amplitude = 0.0 then 1.0
    else
      1.0
      +. sc.diurnal_amplitude
         *. Float.sin (2.0 *. Float.pi *. now /. sc.diurnal_period)
  in
  let burst =
    List.fold_left
      (fun acc b ->
        if b.b_tenant = st.s_tenant && now >= b.from_s && now < b.until_s then
          acc *. b.multiplier
        else acc)
      1.0 sc.bursts
  in
  st.rate *. diurnal *. burst

let peak_rate sc st =
  let burst =
    List.fold_left
      (fun acc b -> if b.b_tenant = st.s_tenant then acc *. b.multiplier else acc)
      1.0 sc.bursts
  in
  st.rate *. (1.0 +. sc.diurnal_amplitude) *. burst

type arrival = {
  a_time : float;
  a_tenant : string;
  a_model : string;
  a_deadline : float option;
}

(* One exponential inter-arrival gap at [rate]: -ln(1-u)/rate. *)
let gap rng rate = -.Float.log (1.0 -. Rng.float rng 1.0) /. rate

let pick_model rng mix =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 mix in
  let u = Rng.float rng total in
  let rec go acc = function
    | [] -> fst (List.hd mix)
    | (m, w) :: rest -> if u < acc +. w then m else go (acc +. w) rest
  in
  go 0.0 mix

(* Nonhomogeneous Poisson arrivals by thinning (Lewis–Shedlock): draw a
   homogeneous process at the stream's peak rate, keep each point with
   probability rate(t)/peak. Streams are generated in declaration order
   and merge-sorted by time, so a run is a pure function of the seed. *)
let arrivals_of rng sc st =
  let peak = peak_rate sc st in
  let t = ref 0.0 in
  let acc = ref [] in
  let continue = ref true in
  while !continue do
    t := !t +. gap rng peak;
    if !t >= sc.duration then continue := false
    else if Rng.float rng peak <= rate_at sc st ~now:!t then
      acc :=
        { a_time = !t; a_tenant = st.s_tenant; a_model = pick_model rng st.mix;
          a_deadline = None }
        :: !acc
  done;
  List.rev !acc

let arrivals rng sc =
  let per_stream = List.map (arrivals_of rng sc) sc.streams in
  let merged =
    List.stable_sort (fun a b -> compare a.a_time b.a_time) (List.concat per_stream)
  in
  Array.of_list merged

let poisson rng ~tenant ~model ~n ~rate ~deadline =
  if n <= 0 then invalid_arg (Printf.sprintf "Scenario.poisson: n %d <= 0" n);
  if rate <= 0.0 then
    invalid_arg (Printf.sprintf "Scenario.poisson: rate %g <= 0" rate);
  let t = ref 0.0 in
  Array.init n (fun _ ->
      t := !t +. gap rng rate;
      { a_time = !t; a_tenant = tenant; a_model = model;
        a_deadline = Some (!t +. deadline) })

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

let drive ?(updates = []) rng fleet ~max_wait arrivals =
  let n = Array.length arrivals in
  let next = ref 0 in
  let pending = ref (List.stable_sort (fun a b -> compare a.at b.at) updates) in
  (* Largest batch size among models touched so far: a full batch of any
     hot model dispatches immediately. *)
  let full = ref 1 in
  let fire_due () =
    let rec go () =
      match !pending with
      | u :: rest
        when u.at <= Fleet.now fleet
             && not (Fleet.update_in_flight fleet u.u_model) ->
          ignore
            (Fleet.begin_update fleet ~model:u.u_model ~faults:u.u_faults
               ~compile_seconds:u.compile_seconds ());
          pending := rest;
          go ()
      | _ -> ()
    in
    go ()
  in
  let submit_due () =
    while !next < n && arrivals.(!next).a_time <= Fleet.now fleet do
      let a = arrivals.(!next) in
      let numel = Fleet.item_numel fleet a.a_model in
      ignore
        (Fleet.submit fleet ~tenant:a.a_tenant ~model:a.a_model
           ?deadline:a.a_deadline
           (Array.init numel (fun _ -> Rng.float rng 1.0)));
      full := max !full (Fleet.batch_size fleet a.a_model);
      incr next
    done
  in
  let next_event_time () =
    let arrival = if !next < n then Some arrivals.(!next).a_time else None in
    (* A due-but-blocked update (predecessor still settling) must not
       pin the idle-advance target in the past. *)
    let update =
      match !pending with
      | u :: _ when u.at > Fleet.now fleet -> Some u.at
      | _ -> None
    in
    match (arrival, update) with
    | Some a, Some u -> Some (Float.min a u)
    | (Some _ as x), None | None, (Some _ as x) -> x
    | None, None -> None
  in
  let rec loop () =
    fire_due ();
    submit_due ();
    if !next >= n && Fleet.queued fleet = 0 then
      match !pending with
      | [] -> ()
      | u :: _ when Fleet.update_in_flight fleet u.u_model ->
          (* A still-settling update blocks its successor and there is no
             traffic left to settle it — the tail of the plan is moot. *)
          pending := []
      | u :: _ ->
          Fleet.advance_to fleet u.at;
          loop ()
    else begin
      (if Fleet.queued fleet = 0 then
         (* Idle with arrivals (or updates) remaining: jump ahead. *)
         match next_event_time () with
         | Some te -> Fleet.advance_to fleet te
         | None -> ()
       else if Fleet.queued fleet >= !full || !next >= n then
         ignore (Fleet.pump fleet)
       else begin
         let waited = Option.value ~default:0.0 (Fleet.oldest_wait fleet) in
         if waited >= max_wait then ignore (Fleet.pump fleet)
         else begin
           let dispatch_at = Fleet.now fleet +. (max_wait -. waited) in
           match next_event_time () with
           | Some te when te <= dispatch_at -> Fleet.advance_to fleet te
           | _ ->
               Fleet.advance_to fleet dispatch_at;
               ignore (Fleet.pump fleet)
         end
       end);
      loop ()
    end
  in
  loop ()

let run ?(seed = 7) fleet sc =
  validate sc;
  let rng = Rng.create seed in
  drive ~updates:sc.updates rng fleet ~max_wait:sc.max_wait (arrivals rng sc);
  let m = Fleet.metrics fleet in
  {
    scenario = sc.name;
    requests = Serve_metrics.submitted m;
    fast = Serve_metrics.done_fast m;
    degraded = Serve_metrics.done_degraded m;
    timeouts = Serve_metrics.timeout m;
    shed = Serve_metrics.shed m;
    throttled = Serve_metrics.throttled m;
    unanswered = Fleet.unanswered fleet;
    swaps = Fleet.swaps fleet;
    rollbacks = Fleet.rollbacks fleet;
    p50 = Serve_metrics.percentile m 50.0;
    p95 = Serve_metrics.percentile m 95.0;
    p999 = Serve_metrics.percentile m 99.9;
    makespan = Fleet.now fleet;
  }

let summary_to_string s =
  Printf.sprintf
    "scenario %-16s %5d req  %5d fast  %4d degraded  %4d timeout  %4d shed  \
     %4d throttled  %d swap(s)  %d rollback(s)  p50 %.3fms  p95 %.3fms  p99.9 \
     %.3fms  over %.3fms"
    s.scenario s.requests s.fast s.degraded s.timeouts s.shed s.throttled s.swaps
    s.rollbacks (s.p50 *. 1e3) (s.p95 *. 1e3) (s.p999 *. 1e3) (s.makespan *. 1e3)

(* ------------------------------------------------------------------ *)
(* Stock scenarios                                                     *)
(* ------------------------------------------------------------------ *)

let stock_tenants =
  [
    { Router.name = "free"; weight = 1.0; rate = 600.0; burst = 24.0;
      queue_cap = 32; deadline = 0.030 };
    { Router.name = "pro"; weight = 4.0; rate = 1200.0; burst = 48.0;
      queue_cap = 64; deadline = 0.020 };
    { Router.name = "enterprise"; weight = 8.0; rate = 2400.0; burst = 96.0;
      queue_cap = 128; deadline = 0.015 };
  ]

let names =
  [ "steady"; "diurnal"; "hot-skew"; "burst"; "rolling-update";
    "chaos-rollback"; "chaos-hang" ]

let base ~duration ~models name descr =
  let model_names = List.map fst models in
  let even = List.map (fun m -> (m, 1.0)) model_names in
  {
    name;
    descr;
    duration;
    tenants = stock_tenants;
    streams =
      [
        { s_tenant = "free"; rate = 400.0; mix = even };
        { s_tenant = "pro"; rate = 800.0; mix = even };
        { s_tenant = "enterprise"; rate = 1600.0; mix = even };
      ];
    diurnal_amplitude = 0.0;
    diurnal_period = 0.0;
    bursts = [];
    updates = [];
    fleet_faults = Fault.none;
    max_wait = 0.002;
  }

(* [models] pairs each registered model name with its output buffer (the
   chaos scenarios poison the updated model's output). The first model
   is the fleet's hot/updated model. *)
let stock ?(duration = 0.25) ~models name =
  if models = [] then invalid_arg "Scenario.stock: no models";
  if duration <= 0.0 then
    invalid_arg (Printf.sprintf "Scenario.stock: duration %g <= 0" duration);
  let base = base ~duration in
  let hot, hot_out = List.hd models in
  match name with
  | "steady" ->
      base ~models "steady" "flat Poisson arrivals, no updates, no faults"
  | "diurnal" ->
      let sc =
        base ~models "diurnal"
          "sinusoidal arrival rate (80% swing, two cycles), no updates"
      in
      { sc with diurnal_amplitude = 0.8; diurnal_period = sc.duration /. 2.0 }
  | "hot-skew" ->
      let sc =
        base ~models "hot-skew"
          (Printf.sprintf "9:1 traffic skew toward %s, exercising LRU retention"
             hot)
      in
      let skew =
        List.map (fun (m, _) -> (m, if m = hot then 9.0 else 1.0)) models
      in
      { sc with streams = List.map (fun st -> { st with mix = skew }) sc.streams }
  | "burst" ->
      let sc =
        base ~models "burst"
          "free tenant bursts 8x mid-run; the others must be unaffected"
      in
      { sc with
        bursts =
          [ { b_tenant = "free"; from_s = sc.duration *. 0.4;
              until_s = sc.duration *. 0.6; multiplier = 8.0 } ] }
  | "rolling-update" ->
      let sc =
        base ~models "rolling-update"
          (Printf.sprintf "clean rolling update of %s mid-traffic" hot)
      in
      { sc with
        updates =
          [ { u_model = hot; at = sc.duration *. 0.4; compile_seconds = 0.01;
              u_faults = Fault.none } ] }
  | "chaos-rollback" ->
      let sc =
        base ~models "chaos-rollback"
          (Printf.sprintf
             "update of %s goes bad (poisoned output on its 3rd forward) under \
              a fleet-wide slow section; must roll back with zero failed \
              requests"
             hot)
      in
      { sc with
        fleet_faults = Fault.parse "slow-section:ip@1.5";
        updates =
          [ { u_model = hot; at = sc.duration *. 0.3; compile_seconds = 0.01;
              u_faults = Fault.parse (Printf.sprintf "poison-out:%s@2" hot_out) } ] }
  | "chaos-hang" ->
      ignore hot_out;
      let sc =
        base ~models "chaos-hang"
          (Printf.sprintf
             "a section of %s stalls mid-run (the watchdog must cancel the \
              batch and recycle the workers) and a worker domain is killed \
              (the pool must respawn it); every request must still be \
              answered"
             hot)
      in
      (* The 50ms stall dwarfs every section estimate, so the watchdog
         fires at any slack; the kill lands on the shared pool's 25th
         dispatch (inert on single-domain runs, where there is no pool). *)
      { sc with
        fleet_faults = Fault.parse "hang-section:ip@0.05,kill-domain:1@25" }
  | other ->
      invalid_arg
        (Printf.sprintf "Scenario.stock: unknown scenario %s (try: %s)" other
           (String.concat ", " names))
