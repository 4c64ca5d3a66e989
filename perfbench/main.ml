(* perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload from a seed for S seconds and prints, as the last
   line of standard output, one JSON object with every end-to-end metric
   (--trace 0) or every per-layer metric (--trace 1). With --trace 1 the
   workload runs twice with the same seed, untraced in a child process
   and then traced, and the difference between the two is reported as
   the tracing overhead. *)

open Perfbench

let trace_dir = Filename.concat "perfbench" "out"

let print_metrics title decls values =
  Printf.printf "%s\n" title;
  List.iter
    (fun (m : Metrics.decl) ->
      Printf.printf "  %-32s %16.6g %s\n" m.Metrics.name (List.assoc m.Metrics.name values) m.Metrics.unit)
    decls

let report name (r : Workload.result) =
  List.iter print_endline r.Workload.notes;
  Printf.printf "failed_share = %g (%d failed of %d attempted)\n"
    (float_of_int r.Workload.failed /. float_of_int r.Workload.attempted)
    r.Workload.failed r.Workload.attempted;
  List.iter (fun f -> Printf.printf "CHECK FAILED (%s): %s\n" name f) r.Workload.check_failures

(* The untraced run of a --trace 1 invocation happens in a child
   process, so that the traced run starts as fresh as it did: neither
   inherits the other's heap, peak RSS or warm caches. The child sends
   its result back through a pipe. *)
let in_child f =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      (match f () with
      | res ->
          Marshal.to_channel oc (res : Workload.result) [];
          close_out oc;
          exit 0
      | exception Host.Unpinned msg ->
          Printf.eprintf "perfbench: measured program is not pinned: %s\n" msg;
          exit 2)
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let res : Workload.result option =
        try Some (Marshal.from_channel ic) with End_of_file -> None
      in
      close_in ic;
      (match (Unix.waitpid [] pid, res) with
      | (_, Unix.WEXITED 0), Some res -> res
      | _ ->
          prerr_endline "perfbench: the untraced run failed";
          exit 2)

let main ~workload ~seed ~seconds ~trace =
  let run =
    match List.assoc_opt workload Workload_list.all with
    | Some run -> run
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" workload
          (String.concat ", " (List.map fst Workload_list.all));
        exit 2
  in
  Host.pin_environment ();
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" workload seed seconds trace;
  Printf.printf "pinned: LATTE_TUNE_CACHE=off, static schedules; domains and precision per workload below\n";
  print_endline (Host.describe ());
  let untraced () =
    let r = run (Trace.create ~enabled:false) ~seed ~seconds in
    report "untraced" r;
    print_metrics "end-to-end (untraced run):" Metrics.end_to_end r.Workload.e2e;
    r
  in
  let untraced = if trace = 0 then untraced () else in_child untraced in
  let result, values =
    if trace = 0 then (untraced, untraced.Workload.e2e)
    else begin
      let tr = Trace.create ~enabled:true in
      let traced = run tr ~seed ~seconds in
      report "traced" traced;
      let overhead =
        List.map
          (fun (m : Metrics.decl) ->
            ( "trace.overhead." ^ m.Metrics.name,
              Metrics.overhead m
                ~untraced:(List.assoc m.Metrics.name untraced.Workload.e2e)
                ~traced:(List.assoc m.Metrics.name traced.Workload.e2e) ))
          Metrics.end_to_end
      in
      let values = Metrics.layer_values (traced.Workload.layers @ overhead) in
      print_metrics "per-layer (traced run; self times, per call unless named otherwise):"
        Metrics.per_layer values;
      if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
      let path = Filename.concat trace_dir (workload ^ ".trace.json") in
      Trace.write_chrome tr path;
      Printf.printf "trace: %s\n" path;
      ( { traced with
          Workload.attempted = untraced.Workload.attempted + traced.Workload.attempted;
          failed = untraced.Workload.failed + traced.Workload.failed;
          check_failures = untraced.Workload.check_failures @ traced.Workload.check_failures },
        values )
    end
  in
  let decls = if trace = 0 then Metrics.end_to_end else Metrics.per_layer in
  let unmeasured =
    List.map (fun n -> n ^ " is not a finite number") (Metrics.non_finite values)
  in
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) unmeasured;
  let correct = result.Workload.check_failures = [] && unmeasured = [] in
  print_endline
    (Metrics.result_line ~correct ~attempted:result.Workload.attempted
       ~failed:result.Workload.failed decls values);
  exit (if correct then 0 else 1)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  train-vgg or serve-int8");
      ("--seed", Arg.Set_int seed, "N  input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per run (> 0)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or a traced run's per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seed N (>= 0), --seconds S (> 0) and --trace 0|1 are required";
    exit 2
  end;
  try main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
  with Host.Unpinned msg ->
    Printf.eprintf "perfbench: measured program is not pinned: %s\n" msg;
    exit 2
