exception Injected_crash of string

type spec =
  | Crash_save of { at_save : int }
  | Poison of { buf : string; at_iter : int; value : float }
  | Kill_worker of { worker : int; at_step : int }
  | Straggler of { node : int; factor : float }
  | Slow_section of { label : string; factor : float }
  | Poison_output of { buf : string; at_forward : int }
  | Hang_section of { label : string; seconds : float }
  | Kill_domain of { worker : int; at_dispatch : int }
  | Alloc_spike of { bytes : int }

type event = { at : int; what : string }

type armed = { spec : spec; mutable fired : bool }

type t = {
  seed : int;
  armed : armed list;
  mutable save_count : int;
  mutable fired_events : event list;  (* newest first *)
}

let plan ?(seed = 0) specs =
  { seed; armed = List.map (fun s -> { spec = s; fired = false }) specs;
    save_count = 0; fired_events = [] }

let none = plan []

let seed t = t.seed
let specs t = List.map (fun a -> a.spec) t.armed
let is_empty t = t.armed = []

let record t ~at what = t.fired_events <- { at; what } :: t.fired_events

let events t = List.rev t.fired_events

(* ------------------------------------------------------------------ *)
(* Hooks                                                               *)
(* ------------------------------------------------------------------ *)

let on_checkpoint_save t =
  let this_save = t.save_count in
  t.save_count <- this_save + 1;
  List.iter
    (fun a ->
      match a.spec with
      | Crash_save { at_save } when (not a.fired) && at_save = this_save ->
          a.fired <- true;
          record t ~at:this_save
            (Printf.sprintf "crash injected during checkpoint write #%d" this_save);
          raise
            (Injected_crash
               (Printf.sprintf "Fault: crash during checkpoint write #%d" this_save))
      | _ -> ())
    t.armed

let poisons_at t ~iter =
  List.filter_map
    (fun a ->
      match a.spec with
      | Poison { buf; at_iter; value } when (not a.fired) && at_iter = iter ->
          a.fired <- true;
          record t ~at:iter
            (Printf.sprintf "poisoned buffer %s with %h at iteration %d" buf value
               iter);
          Some (buf, value)
      | _ -> None)
    t.armed

let killed_workers t ~step =
  let dead =
    List.filter_map
      (fun a ->
        match a.spec with
        | Kill_worker { worker; at_step } when at_step <= step ->
            if not a.fired then begin
              a.fired <- true;
              record t ~at:step
                (Printf.sprintf "worker %d died at step %d" worker at_step)
            end;
            Some worker
        | _ -> None)
      t.armed
  in
  List.sort_uniq compare dead

let straggler_factor t ~node =
  List.fold_left
    (fun acc a ->
      match a.spec with
      | Straggler { node = n; factor } when n = node -> Float.max acc factor
      | _ -> acc)
    1.0 t.armed

let stragglers t =
  List.filter_map
    (fun a ->
      match a.spec with
      | Straggler { node; factor } -> Some (node, factor)
      | _ -> None)
    t.armed

(* A [Slow_section] spec matches any section whose label contains it —
   fused section labels are '+'-joined ensemble lists the user should
   not have to spell out exactly. *)
let label_matches ~spec ~label =
  let nl = String.length label and ns = String.length spec in
  let rec go i = i + ns <= nl && (String.sub label i ns = spec || go (i + 1)) in
  ns > 0 && go 0

let section_factor t ~label =
  List.fold_left
    (fun acc a ->
      match a.spec with
      | Slow_section { label = spec; factor } when label_matches ~spec ~label ->
          acc *. factor
      | _ -> acc)
    1.0 t.armed

let poison_outputs_at t ~forward =
  List.filter_map
    (fun a ->
      match a.spec with
      | Poison_output { buf; at_forward } when (not a.fired) && at_forward = forward
        ->
          a.fired <- true;
          record t ~at:forward
            (Printf.sprintf "poisoned output buffer %s on forward #%d" buf forward);
          Some buf
      | _ -> None)
    t.armed

(* One-shot simulated hang: the first section whose label matches each
   armed [Hang_section] absorbs its stall (in simulated seconds, on top
   of the cost-model estimate) exactly once. *)
let hang_seconds t ~forward ~label =
  List.fold_left
    (fun acc a ->
      match a.spec with
      | Hang_section { label = spec; seconds }
        when (not a.fired) && label_matches ~spec ~label ->
          a.fired <- true;
          record t ~at:forward
            (Printf.sprintf "section %s hung for %gs on forward #%d (hang-section:%s)"
               label seconds forward spec);
          acc +. seconds
      | _ -> acc)
    0.0 t.armed

(* Armed worker-domain deaths, as (worker, dispatch) pairs for
   Domain_pool.arm_kill. Firing is recorded by [note_domain_kill] when
   the serving layer observes the resulting [Worker_died]. *)
let domain_kills t =
  List.filter_map
    (fun a ->
      match a.spec with
      | Kill_domain { worker; at_dispatch } -> Some (worker, at_dispatch)
      | _ -> None)
    t.armed

let note_domain_kill t ~worker ~at =
  let rec mark = function
    | [] -> ()
    | a :: rest -> (
        match a.spec with
        | Kill_domain _ when not a.fired ->
            a.fired <- true;
            record t ~at
              (Printf.sprintf
                 "worker domain %d died on forward #%d; pool respawned it" worker at)
        | _ -> mark rest)
  in
  mark t.armed

let alloc_spike_due t =
  List.fold_left
    (fun acc a ->
      match a.spec with
      | Alloc_spike { bytes } when not a.fired ->
          a.fired <- true;
          record t ~at:0
            (Printf.sprintf
               "allocation spike of %d bytes charged against the memory budget"
               bytes);
          acc + bytes
      | _ -> acc)
    0 t.armed

let poison_output_bufs t =
  List.filter_map
    (fun a ->
      match a.spec with
      | Poison_output { buf; _ } -> Some buf
      | _ -> None)
    t.armed

(* ------------------------------------------------------------------ *)
(* CLI syntax                                                          *)
(* ------------------------------------------------------------------ *)

let usage =
  "fault spec: comma-separated crash-save@N | nan:BUF@K | inf:BUF@K | \
   kill:W@S | slow:NODE@F | slow-section:LABEL@F | poison-out:BUF@K | \
   hang-section:LABEL@S | kill-domain:K@T | alloc-spike:BYTES"

let parse_item item =
  let fail () =
    invalid_arg (Printf.sprintf "Fault.parse: bad item %S (%s)" item usage)
  in
  let int_of s = match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> fail ()
  in
  let float_of s = match float_of_string_opt (String.trim s) with
    | Some f -> f
    | None -> fail ()
  in
  match String.index_opt item '@' with
  | None -> (
      (* The only '@'-less form: alloc-spike:BYTES (a one-shot event
         with no target/trigger split to separate). *)
      match String.index_opt item ':' with
      | Some colon when String.sub item 0 colon = "alloc-spike" ->
          let arg = String.sub item (colon + 1) (String.length item - colon - 1) in
          if String.length arg = 0 then fail ();
          let bytes = int_of arg in
          if bytes <= 0 then fail ();
          Alloc_spike { bytes }
      | _ -> fail ())
  | Some at ->
      let head = String.sub item 0 at in
      let arg = String.sub item (at + 1) (String.length item - at - 1) in
      (match String.index_opt head ':' with
      | None ->
          if String.equal head "crash-save" then
            Crash_save { at_save = int_of arg }
          else fail ()
      | Some colon ->
          let kind = String.sub head 0 colon in
          let target = String.sub head (colon + 1) (String.length head - colon - 1) in
          if String.length target = 0 then fail ();
          (match kind with
          | "nan" -> Poison { buf = target; at_iter = int_of arg; value = Float.nan }
          | "inf" ->
              Poison { buf = target; at_iter = int_of arg; value = Float.infinity }
          | "kill" -> Kill_worker { worker = int_of target; at_step = int_of arg }
          | "slow" -> Straggler { node = int_of target; factor = float_of arg }
          | "slow-section" -> Slow_section { label = target; factor = float_of arg }
          | "poison-out" -> Poison_output { buf = target; at_forward = int_of arg }
          | "hang-section" ->
              Hang_section { label = target; seconds = float_of arg }
          | "kill-domain" ->
              let worker = int_of target in
              if worker < 1 then fail ();
              Kill_domain { worker; at_dispatch = int_of arg }
          | "alloc-spike" -> fail ()  (* alloc-spike takes no '@' trigger *)
          | _ -> fail ()))

let parse s =
  let items =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> String.length x > 0)
  in
  plan (List.map parse_item items)

let spec_to_string = function
  | Crash_save { at_save } -> Printf.sprintf "crash-save@%d" at_save
  | Poison { buf; at_iter; value } ->
      let kind = if Float.is_nan value then "nan" else "inf" in
      Printf.sprintf "%s:%s@%d" kind buf at_iter
  | Kill_worker { worker; at_step } -> Printf.sprintf "kill:%d@%d" worker at_step
  | Straggler { node; factor } -> Printf.sprintf "slow:%d@%g" node factor
  | Slow_section { label; factor } -> Printf.sprintf "slow-section:%s@%g" label factor
  | Poison_output { buf; at_forward } -> Printf.sprintf "poison-out:%s@%d" buf at_forward
  | Hang_section { label; seconds } ->
      Printf.sprintf "hang-section:%s@%g" label seconds
  | Kill_domain { worker; at_dispatch } ->
      Printf.sprintf "kill-domain:%d@%d" worker at_dispatch
  | Alloc_spike { bytes } -> Printf.sprintf "alloc-spike:%d" bytes

let to_string t = String.concat "," (List.map spec_to_string (specs t))
