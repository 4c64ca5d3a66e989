(* In-memory spans recorded around the benchmark's calls into the
   program. A disabled tracer records nothing and [span] is a plain
   call. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  name : string;
  parent : int;  (* span id, or -1 for a root *)
  rid : int;  (* request id on the serving workload, or -1 *)
  start : float;
  mutable stop : float;
}

type t = {
  enabled : bool;
  mutable spans : span array;  (* index = span id *)
  mutable n : int;
}

let none = -1
let create ~enabled = { enabled; spans = [||]; n = 0 }
let enabled t = t.enabled

let open_ t ?(parent = none) ?(rid = none) ?at name =
  if not t.enabled then none
  else begin
    let start = match at with Some s -> s | None -> now () in
    let s = { name; parent; rid; start; stop = Float.nan } in
    if t.n = Array.length t.spans then
      t.spans <- Array.append t.spans (Array.make (max 1024 t.n) s);
    t.spans.(t.n) <- s;
    t.n <- t.n + 1;
    t.n - 1
  end

let close t ?at id =
  if id >= 0 then t.spans.(id).stop <- (match at with Some s -> s | None -> now ())

let span t ?parent ?rid name f =
  if not t.enabled then f none
  else begin
    let id = open_ t ?parent ?rid name in
    Fun.protect ~finally:(fun () -> close t id) (fun () -> f id)
  end

let spans t = Array.sub t.spans 0 t.n

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b))
        | None -> (acc, Some (a, b)))
      (0.0, None) sorted
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* A span's self time: its duration minus the part of it its children
   cover. Spans still open count as empty. *)
let self_times (spans : span array) =
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s ->
      if s.parent >= 0 && Float.is_finite s.stop then
        children.(s.parent) <- (s.start, s.stop) :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      if not (Float.is_finite s.stop) then 0.0
      else s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop children.(i))
    spans

(* Every recorded span with its self time, computed once. *)
type view = { all : span array; self : float array }

let view t =
  let all = spans t in
  { all; self = self_times all }

(* Self times of the spans called [name] that start in [since, until). *)
let self_of ?(since = Float.neg_infinity) ?(until = Float.infinity) v name =
  let acc = ref [] in
  Array.iteri
    (fun i s ->
      if s.name = name && s.start >= since && s.start < until then
        acc := v.self.(i) :: !acc)
    v.all;
  Array.of_list (List.rev !acc)

(* Chrome trace-event JSON, which Perfetto and chrome://tracing open.
   Request spans become async events keyed by request id (they overlap
   one another); the rest are complete events on one thread. *)
let write_chrome t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let spans = spans t in
  let t0 = if Array.length spans = 0 then 0.0 else spans.(0).start in
  let us x = (x -. t0) *. 1e6 in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let event fmt =
    if not !first then output_char oc ',';
    first := false;
    Printf.fprintf oc fmt
  in
  Array.iteri
    (fun id s ->
      if Float.is_finite s.stop then
        if s.rid >= 0 then begin
          event
            "\n{\"name\":%S,\"cat\":\"request\",\"ph\":\"b\",\"id\":%d,\"pid\":1,\"tid\":2,\"ts\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"rid\":%d}}"
            s.name s.rid (us s.start) id s.parent s.rid;
          event
            "\n{\"name\":%S,\"cat\":\"request\",\"ph\":\"e\",\"id\":%d,\"pid\":1,\"tid\":2,\"ts\":%.3f}"
            s.name s.rid (us s.stop)
        end
        else
          event
            "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d}}"
            s.name (us s.start) (us s.stop -. us s.start) id s.parent)
    spans;
  output_string oc "\n]}\n"
