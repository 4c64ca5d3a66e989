(* What the measured program reads from its surroundings, pinned. *)

(* [Config.default] and [Run_opts.default] read LATTE_DOMAINS and
   LATTE_PRECISION when the program initialises, and every compile
   consults the host's tuning cache. The benchmark builds each config
   and run option explicitly and turns the cache off before its first
   compile, so a stray variable or an earlier `latte tune` cannot change
   what is measured. *)
let pin_environment () = Unix.putenv "LATTE_TUNE_CACHE" "off"

let config ~domains ~precision =
  Config.with_flags ~num_domains:domains ~precision Config.default

let run_opts ~domains = Executor.Run_opts.with_domains domains Executor.Run_opts.default

exception Unpinned of string

(* A schedule from the tuning cache (or anywhere else), another domain
   count or another precision would mean the static heuristics at the
   workload's settings did not decide the measured program. *)
let check_executor e ~domains ~precision =
  let p = Executor.program e in
  Option.iter
    (fun s -> raise (Unpinned ("compiled under a non-static schedule: " ^ s)))
    p.Program.schedule_descr;
  if Executor.domains e <> domains then
    raise
      (Unpinned
         (Printf.sprintf "executor runs %d domains, pinned %d" (Executor.domains e) domains));
  let tag = Program.precision_tag p in
  if tag <> precision then
    raise (Unpinned (Printf.sprintf "program runs at %s, pinned %s" tag precision))

(* VmHWM from /proc/self/status, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> failwith "no VmHWM line in /proc/self/status"
  in
  go ()

let describe () =
  let env v = Option.value ~default:"<unset>" (Sys.getenv_opt v) in
  Printf.sprintf "host: nproc=%d ocaml=%s rev=%s (ignored env: LATTE_DOMAINS=%s LATTE_PRECISION=%s)"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_REV"))
    (env "LATTE_DOMAINS") (env "LATTE_PRECISION")
