type state = [ `Closed | `Open | `Half_open ]

let state_name = function
  | `Closed -> "Closed"
  | `Open -> "Open"
  | `Half_open -> "Half_open"

type transition = {
  at : float;
  from_state : state;
  to_state : state;
  reason : string;
}

type t = {
  threshold : int;
  cooldown : float;
  mutable state : state;
  mutable streak : int;  (* consecutive fast-path failures *)
  mutable opened_at : float;
  mutable transitions : transition list;  (* newest first *)
}

let create ?(threshold = 1) ?(cooldown = 5e-3) () =
  if threshold <= 0 then
    invalid_arg (Printf.sprintf "Breaker.create: threshold %d <= 0" threshold);
  if cooldown < 0.0 then
    invalid_arg (Printf.sprintf "Breaker.create: cooldown %g < 0" cooldown);
  { threshold; cooldown; state = `Closed; streak = 0; opened_at = 0.0;
    transitions = [] }

let state t = t.state
let to_string t = state_name t.state
let threshold t = t.threshold

let transit t ~now to_state reason =
  t.transitions <-
    { at = now; from_state = t.state; to_state; reason } :: t.transitions;
  t.state <- to_state

let allow_fast t ~now =
  match t.state with
  | `Closed | `Half_open -> true
  | `Open ->
      if now -. t.opened_at >= t.cooldown then begin
        transit t ~now `Half_open
          (Printf.sprintf "cooldown %gs elapsed; probing the fast path" t.cooldown);
        true
      end
      else false

let on_success t ~now =
  t.streak <- 0;
  match t.state with
  | `Half_open -> transit t ~now `Closed "probe batch succeeded"
  | `Closed | `Open -> ()

let on_failure t ~now ~reason =
  t.streak <- t.streak + 1;
  match t.state with
  | `Half_open ->
      t.opened_at <- now;
      transit t ~now `Open (Printf.sprintf "probe batch failed (%s)" reason)
  | `Closed when t.streak >= t.threshold ->
      t.opened_at <- now;
      transit t ~now `Open
        (Printf.sprintf "%d consecutive failure(s): %s" t.streak reason)
  | `Closed | `Open -> ()

let transitions t = List.rev t.transitions

let transition_to_string tr =
  Printf.sprintf "t=%.6fs  %s -> %s  (%s)" tr.at (state_name tr.from_state)
    (state_name tr.to_state) tr.reason
