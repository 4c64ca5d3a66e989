type params = {
  n : int;
  rate : float;
  deadline : float;
  max_wait : float;
  seed : int;
}

let poisson_arrivals rng ~n ~rate ~from =
  if n <= 0 then invalid_arg (Printf.sprintf "Load_gen.poisson_arrivals: n %d <= 0" n);
  if rate <= 0.0 then
    invalid_arg (Printf.sprintf "Load_gen.poisson_arrivals: rate %g <= 0" rate);
  let t = ref from in
  Array.init n (fun _ ->
      (* Exponential inter-arrival: -ln(1-u)/rate. *)
      t := !t +. (-.Float.log (1.0 -. Rng.float rng 1.0) /. rate);
      !t)

let features rng ~numel = Array.init numel (fun _ -> Rng.float rng 1.0)

let run ?rng fleet ~tenant ~model p =
  if p.n <= 0 then invalid_arg (Printf.sprintf "Load_gen.run: n %d <= 0" p.n);
  if p.rate <= 0.0 then
    invalid_arg (Printf.sprintf "Load_gen.run: rate %g <= 0" p.rate);
  let rng = match rng with Some r -> r | None -> Rng.create p.seed in
  let arrivals = poisson_arrivals rng ~n:p.n ~rate:p.rate ~from:0.0 in
  let item = Fleet.item_numel fleet model in
  let batch = Fleet.batch_size fleet model in
  let next = ref 0 in
  let submit_due () =
    while !next < p.n && arrivals.(!next) <= Fleet.now fleet do
      ignore
        (Fleet.submit fleet ~tenant ~model
           ~deadline:(arrivals.(!next) +. p.deadline)
           (features rng ~numel:item));
      incr next
    done
  in
  while !next < p.n || Fleet.queued fleet > 0 do
    submit_due ();
    let qlen = Fleet.queued fleet in
    if qlen = 0 then
      (* Idle: jump to the next arrival (there is one, or the loop ends). *)
      Fleet.advance_to fleet arrivals.(!next)
    else if qlen >= batch || !next >= p.n then ignore (Fleet.pump fleet)
    else begin
      (* Short batch: wait for more arrivals, but never past the
         batching window of the head-of-line request. *)
      let waited = Option.value ~default:0.0 (Fleet.oldest_wait fleet) in
      if waited >= p.max_wait then ignore (Fleet.pump fleet)
      else begin
        let dispatch_at = Fleet.now fleet +. (p.max_wait -. waited) in
        if arrivals.(!next) <= dispatch_at then
          Fleet.advance_to fleet arrivals.(!next)
        else begin
          Fleet.advance_to fleet dispatch_at;
          ignore (Fleet.pump fleet)
        end
      end
    end
  done
