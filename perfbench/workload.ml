(* What one run of a workload reports. *)

type result = {
  e2e : (string * float) list;  (* every [Metrics.end_to_end] name *)
  layers : (string * float) list;
      (* [Metrics.per_layer] values from the spans and counts; empty in
         an untraced run. Names left out read 0. *)
  attempted : int;
  failed : int;
  check_failures : string list;  (* output checks that failed *)
  notes : string list;  (* human-readable lines printed beside the metrics *)
}

let ms x = x *. 1e3

let mean_ms a = if Array.length a = 0 then 0.0 else ms (Stats.mean a)

(* Set-ups. The first precedes the timed phase; a replica follows each
   segment of it and is discarded, so [setup_s], their median, samples
   the host across the whole run. Each starts from a collected heap. A
   traced run records the replicas in [replicas], so a set-up layer
   metric averages the same set-ups as the others. *)
type setups = { mutable times : float list; replicas : Trace.t }

let setups ~traced = { times = []; replicas = Trace.create ~enabled:traced }

let timed_setup s f tr =
  Gc.full_major ();
  let t0 = Trace.now () in
  let r = f tr in
  s.times <- (Trace.now () -. t0) :: s.times;
  r

let replica s ?(discard = ignore) f = discard (timed_setup s f s.replicas)

let setup_s s = Stats.median (Array.of_list s.times)

let setup_note s =
  let a = Array.of_list s.times in
  Printf.sprintf "setup_s is the median of %d set-ups (%.3f to %.3f s)" (Array.length a)
    (Array.fold_left Float.min Float.infinity a) (Array.fold_left Float.max 0.0 a)

(* Mean self time of the spans called [name] over every set-up: the
   first, whose spans in [v] start before [until], and the replicas. *)
let setup_mean_ms s v ~until name =
  mean_ms
    (Array.append (Trace.self_of ~until v name) (Trace.self_of (Trace.view s.replicas) name))

(* The [Metrics.groups] entry of a section: the first model group that
   holds one of the ensembles it computes. *)
let group_of (spec : Models.spec) (s : Program.section) =
  let in_group (_, members) = List.exists (fun e -> List.mem e members) s.Program.ensembles in
  match List.find_opt in_group spec.Models.groups with
  | Some (g, _) when List.mem g Metrics.fwd_groups -> g
  | _ -> "other"

(* [forward_timed]/[backward_timed] section times summed by group over
   [runs] runs, reported as the mean per run. *)
type groups = { table : (string, float) Hashtbl.t; mutable runs : int }

let groups () = { table = Hashtbl.create 16; runs = 0 }

let add_sections g spec sections timings =
  g.runs <- g.runs + 1;
  List.iter2
    (fun s (_, secs) ->
      let k = group_of spec s in
      Hashtbl.replace g.table k (secs +. Option.value ~default:0.0 (Hashtbl.find_opt g.table k)))
    sections timings

let group_metrics g ~prefix names =
  List.map
    (fun k ->
      let tot = Option.value ~default:0.0 (Hashtbl.find_opt g.table k) in
      (Printf.sprintf "%s.%s_ms" prefix k,
       if g.runs = 0 then 0.0 else ms tot /. float_of_int g.runs))
    names

(* IR census and section count of the compiled programs. *)
let census progs =
  let sections (p : Program.t) = p.Program.forward @ p.Program.backward in
  let st =
    List.fold_left
      (fun acc (s : Program.section) -> Ir_stats.add acc (Ir_stats.of_stmts s.Program.stmts))
      Ir_stats.zero (List.concat_map sections progs)
  in
  [ ("compiler.ir_statements", float_of_int (Ir_stats.statements st));
    ("compiler.ir_parallel_loops", float_of_int st.Ir_stats.parallel_loops);
    ("compiler.ir_gemms", float_of_int st.Ir_stats.gemms);
    ("exec.sections", float_of_int (List.length (List.concat_map sections progs))) ]

let pool_bytes progs =
  ("mem.pool_bytes",
   float_of_int
     (List.fold_left (fun acc (p : Program.t) -> acc + Buffer_pool.total_bytes p.Program.buffers) 0 progs))

(* Checks a buffer pair within [tol]; the failure names the buffer. *)
let close_within ~tol what a b =
  let d = Tensor.max_abs_diff a b in
  if Float.is_finite d && d <= tol then None
  else Some (Printf.sprintf "%s differs from Mocha_like by %g (tolerance %g)" what d tol)

let tail_note ~what ~p n =
  match Stats.tail_percentile n with
  | Some (q, _) when q >= p ->
      Printf.sprintf "%s tail is %s over %d samples" what (Stats.percentile_name p) n
  | _ ->
      Printf.sprintf "WARNING: %s tail %s has fewer than 10 of %d samples beyond it"
        what (Stats.percentile_name p) n
