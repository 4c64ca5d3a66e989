(* Multicore domain-pool execution (§5.4.3).

   The contract under test: parallel-annotated loops dispatched onto a
   Domain pool produce results bit-identical to sequential execution at
   any domain count — forward activations, loss, and every gradient
   buffer (weight gradients included), for all stock models. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Domain_pool unit tests                                              *)
(* ------------------------------------------------------------------ *)

let pool_covers_all_indices () =
  let pool = Domain_pool.create 3 in
  check_int "size" 3 (Domain_pool.size pool);
  let n = 301 in
  let hits = Array.make n 0 in
  (* Static interleaved assignment, the schedule codegen emits. *)
  Domain_pool.run pool (fun w ->
      let i = ref w in
      while !i < n do
        hits.(!i) <- hits.(!i) + 1;
        i := !i + 3
      done);
  Array.iteri (fun i h -> check_int (Printf.sprintf "hits.(%d)" i) 1 h) hits;
  (* The barrier is reusable: a second dispatch sees the first's writes. *)
  Domain_pool.run pool (fun w ->
      let i = ref w in
      while !i < n do
        hits.(!i) <- hits.(!i) + 1;
        i := !i + 3
      done);
  check_int "second pass" (2 * n) (Array.fold_left ( + ) 0 hits);
  Domain_pool.shutdown pool

let pool_runs_on_distinct_domains () =
  let pool = Domain_pool.create 2 in
  let ids = Array.make 2 (-1) in
  Domain_pool.run pool (fun w -> ids.(w) <- (Domain.self () :> int));
  check "worker 1 on its own domain" true (ids.(0) <> ids.(1));
  check_int "worker 0 is the caller" ((Domain.self () :> int)) ids.(0);
  Domain_pool.shutdown pool

let pool_propagates_exceptions () =
  let pool = Domain_pool.create 4 in
  (match Domain_pool.run pool (fun w -> if w >= 2 then failwith "boom") with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure msg -> check "message" true (String.equal msg "boom"));
  (* The pool survives a failed job: barrier re-armed, workers parked. *)
  let total = Atomic.make 0 in
  Domain_pool.run pool (fun w -> ignore (Atomic.fetch_and_add total w));
  check_int "usable after exception" 6 (Atomic.get total);
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool;
  (* shutdown is idempotent; running after it is a programming error. *)
  (match Domain_pool.run pool (fun _ -> ()) with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ())

(* An armed worker death is detected at the barrier, the slot is
   respawned before [Worker_died] reaches the caller, and the healed
   pool runs the next job on every worker. *)
let pool_heals_armed_kill () =
  let pool = Domain_pool.create 3 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  Domain_pool.arm_kill pool ~worker:2
    ~at_dispatch:(Domain_pool.dispatches pool);
  let r0 = Domain_pool.respawns pool in
  (match Domain_pool.run pool (fun _ -> ()) with
  | () -> Alcotest.fail "expected Worker_died"
  | exception Domain_pool.Worker_died ws ->
      Alcotest.(check (list int)) "dead worker named" [ 2 ] ws);
  check_int "slot respawned before raise" (r0 + 1) (Domain_pool.respawns pool);
  let hits = Array.make 3 0 in
  Domain_pool.run pool (fun w -> hits.(w) <- hits.(w) + 1);
  Array.iteri (fun i h -> check_int (Printf.sprintf "worker %d ran" i) 1 h) hits;
  (match Domain_pool.arm_kill pool ~worker:0 ~at_dispatch:0 with
  | () -> Alcotest.fail "worker 0 cannot be killed"
  | exception Invalid_argument _ -> ())

(* A worker that never reaches the barrier trips the [run] deadline: the
   stuck slot is abandoned (the incarnation finishes later as a zombie)
   and replaced, and the pool keeps working. *)
let pool_watchdog_replaces_stuck_worker () =
  let pool = Domain_pool.create 2 in
  let release = Atomic.make false in
  Fun.protect ~finally:(fun () ->
      Atomic.set release true;
      Domain_pool.shutdown pool (* joins the zombie *))
  @@ fun () ->
  (match
     Domain_pool.run ~deadline_s:0.05 pool (fun w ->
         if w = 1 then
           while not (Atomic.get release) do
             Domain.cpu_relax ()
           done)
   with
  | () -> Alcotest.fail "expected Hung"
  | exception Domain_pool.Hung { workers; waited_s } ->
      Alcotest.(check (list int)) "stuck worker named" [ 1 ] workers;
      check "waited at least the deadline" true (waited_s >= 0.05));
  check "abandonment counted as respawn" true (Domain_pool.respawns pool >= 1);
  let seen = Atomic.make 0 in
  Domain_pool.run pool (fun w -> if w = 1 then Atomic.set seen 1);
  check_int "replacement worker runs" 1 (Atomic.get seen)

(* Proactive recycling (the serving layer's post-watchdog move): every
   worker slot is joined and respawned, heartbeats reset, and the fresh
   incarnations run the next job. Teardown stays idempotent around it. *)
let pool_respawn_workers_recycles_all () =
  let pool = Domain_pool.create 3 in
  Domain_pool.run pool (fun _ -> ());
  let r0 = Domain_pool.respawns pool in
  check_int "both workers recycled" 2 (Domain_pool.respawn_workers pool);
  check_int "respawns counted" (r0 + 2) (Domain_pool.respawns pool);
  check "heartbeats reset" true
    (Array.for_all (fun h -> h = 0) (Domain_pool.heartbeats pool));
  let total = Atomic.make 0 in
  Domain_pool.run pool (fun w -> ignore (Atomic.fetch_and_add total (w + 1)));
  check_int "fresh workers run" 6 (Atomic.get total);
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool;
  check_int "respawn after shutdown is a no-op" 0
    (Domain_pool.respawn_workers pool);
  let one = Domain_pool.create 1 in
  check_int "size-1 pool has nothing to recycle" 0
    (Domain_pool.respawn_workers one);
  Domain_pool.shutdown one

let pool_size_one_inlines () =
  let pool = Domain_pool.create 1 in
  let seen = ref (-1) in
  Domain_pool.run pool (fun w -> seen := w);
  check_int "worker 0 only" 0 !seen;
  Domain_pool.shutdown pool

let shared_pools_are_cached () =
  let a = Domain_pool.shared 2 and b = Domain_pool.shared 2 in
  check "same pool per size" true (a == b);
  check_int "clamped to >= 1" 1 (Domain_pool.size (Domain_pool.shared 0));
  let r = Domain_pool.runner a in
  check_int "runner workers" 2 r.Ir_compile.workers

(* ------------------------------------------------------------------ *)
(* Bitwise determinism across domain counts                            *)
(* ------------------------------------------------------------------ *)

let stock_models : (string * (unit -> Models.spec)) list =
  let scale = { Models.image = 32; width_div = 8; fc_div = 32 } in
  [
    ("mlp", fun () -> Models.mlp ~batch:4 ~n_inputs:64 ~hidden:[ 16 ] ~n_classes:10);
    ("lenet", fun () -> Models.lenet ~batch:2 ~image:16 ~n_classes:10 ());
    ( "vgg-block",
      fun () ->
        Models.vgg_first_block ~batch:2 ~scale:{ scale with Models.image = 8 } );
    ("alexnet", fun () -> Models.alexnet ~batch:2 ~scale ());
    ("vgg", fun () -> Models.vgg ~batch:1 ~scale);
    ("overfeat", fun () -> Models.overfeat ~batch:1 ~scale);
  ]

(* Two forward+backward rounds (the second exercises pool reuse), then a
   bitwise image of every buffer in the pool. *)
let run_rounds exec (spec : Models.spec) =
  let prog = Executor.program exec in
  let rng = Rng.create 13 in
  let data = Executor.lookup exec (spec.Models.data_ens ^ ".value") in
  Tensor.fill_uniform rng data ~lo:(-1.0) ~hi:1.0;
  let labels = Executor.lookup exec spec.Models.label_buf in
  let out = Executor.lookup exec (spec.Models.output_ens ^ ".value") in
  let n_classes = Tensor.numel out / prog.Program.batch_size in
  for i = 0 to Tensor.numel labels - 1 do
    Tensor.set1 labels i (float_of_int (i mod n_classes))
  done;
  Executor.forward exec;
  Executor.backward exec;
  Executor.forward exec;
  Executor.backward exec;
  List.map
    (fun name ->
      let t = Executor.lookup exec name in
      ( name,
        Array.init (Tensor.numel t) (fun i ->
            Int64.bits_of_float (Tensor.get1 t i)) ))
    (Buffer_pool.names prog.Program.buffers)

let run_with ~domains specf =
  let spec = specf () in
  let prog = Pipeline.compile ~seed:42 Config.default spec.Models.net in
  let opts =
    Executor.Run_opts.with_domains domains Executor.Run_opts.default
  in
  Executor.prepare ~opts prog

let compare_images name ref_img img =
  List.iter2
    (fun (buf, a) (buf', b) ->
      check (name ^ ": same buffer order") true (String.equal buf buf');
      Array.iteri
        (fun i bits ->
          if not (Int64.equal bits b.(i)) then
            Alcotest.fail
              (Printf.sprintf
                 "%s: %s[%d] differs: %h (seq) vs %h (par)" name buf i
                 (Int64.float_of_bits bits)
                 (Int64.float_of_bits b.(i))))
        a)
    ref_img img

let determinism_case (name, specf) =
  let test () =
    let baseline =
      let spec = specf () in
      run_rounds (run_with ~domains:1 (fun () -> spec)) spec
    in
    List.iter
      (fun domains ->
        let spec = specf () in
        let exec = run_with ~domains (fun () -> spec) in
        check_int (name ^ ": prepared domains") domains (Executor.domains exec);
        compare_images
          (Printf.sprintf "%s@%d" name domains)
          baseline (run_rounds exec spec))
      [ 2; 4 ]
  in
  Alcotest.test_case (Printf.sprintf "%s bit-identical at 1/2/4" name) `Slow test

(* int8 keeps the contract too. Each domain count compiles, calibrates
   and quantizes from the same seed and the same calibration feed, then
   runs one forward; every buffer must match the one-domain run bit for
   bit. The image is each buffer's decoded values, which covers an int8
   buffer's codes and its scale alike. *)
let int8_determinism_case (name, specf) =
  let image domains =
    let spec = specf () in
    let exec = run_with ~domains (fun () -> spec) in
    let input_buf = spec.Models.data_ens ^ ".value" in
    let input = Executor.lookup exec input_buf in
    let feed i =
      Tensor.fill_uniform (Rng.create (31 + i)) input ~lo:0.0 ~hi:1.0
    in
    let keep =
      [ input_buf; spec.Models.label_buf; spec.Models.loss_buf;
        spec.Models.output_ens ^ ".value" ]
    in
    let exec, packed = Quantize.quantize ~feed ~keep exec in
    check (name ^ ": packs buffers") true (packed > 0);
    feed 4;
    Executor.forward exec;
    let pool = (Executor.program exec).Program.buffers in
    List.map
      (fun buf ->
        let t = Buffer_pool.read_f32 pool buf in
        ( buf,
          Array.init (Tensor.numel t) (fun i ->
              Int64.bits_of_float (Tensor.get1 t i)) ))
      (Buffer_pool.names pool)
  in
  let test () =
    let baseline = image 1 in
    List.iter
      (fun domains ->
        compare_images (Printf.sprintf "%s int8@%d" name domains) baseline
          (image domains))
      [ 2; 4 ]
  in
  Alcotest.test_case (Printf.sprintf "%s int8 bit-identical at 1/2/4" name)
    `Quick test

(* Forced worker respawn must not change a single bit: arm an injected
   worker death mid-run and compare every buffer against a clean run at
   the same domain count. [Executor.forward]/[backward] self-heal by
   re-running the interrupted job on the recovered pool, so the images
   must match exactly. At domains=1 there is no pool and the plan is
   inert — the comparison degenerates to plain determinism. *)
let respawn_determinism_case (name, specf) =
  let test () =
    List.iter
      (fun domains ->
        let spec = specf () in
        let clean = run_rounds (run_with ~domains (fun () -> spec)) spec in
        let spec = specf () in
        let exec = run_with ~domains (fun () -> spec) in
        let pool = Executor.pool exec in
        Fun.protect ~finally:(fun () ->
            match pool with Some p -> Domain_pool.clear_kills p | None -> ())
        @@ fun () ->
        let d0, r0 =
          match pool with
          | Some p ->
              Domain_pool.arm_kill p ~worker:1
                ~at_dispatch:(Domain_pool.dispatches p + 1);
              (Domain_pool.dispatches p, Domain_pool.respawns p)
          | None -> (0, 0)
        in
        let img = run_rounds exec spec in
        (match pool with
        | Some p when Domain_pool.dispatches p > d0 + 1 ->
            (* The armed dispatch number was passed, so the kill fired
               and the slot was respawned. *)
            check (name ^ ": worker respawned") true
              (Domain_pool.respawns p > r0)
        | _ -> ());
        compare_images (Printf.sprintf "%s@%d+kill" name domains) clean img)
      [ 1; 2; 4 ]
  in
  Alcotest.test_case
    (Printf.sprintf "%s bit-identical across respawn" name)
    `Slow test

(* The pre-existing entrypoint (no opts at all) must agree bitwise with
   an explicit domains=1 run — whatever LATTE_DOMAINS says. *)
let default_prepare_matches_sequential () =
  let name, specf = List.nth stock_models 1 (* lenet *) in
  let spec = specf () in
  let baseline = run_rounds (run_with ~domains:1 (fun () -> spec)) spec in
  let spec = specf () in
  let prog = Pipeline.compile ~seed:42 Config.default spec.Models.net in
  let legacy = Executor.prepare prog in
  compare_images (name ^ " legacy-default") baseline (run_rounds legacy spec)

(* ------------------------------------------------------------------ *)
(* Scheduling report                                                   *)
(* ------------------------------------------------------------------ *)

let schedule_reports_parallel_loops () =
  let _, specf = List.nth stock_models 1 (* lenet *) in
  let seq = run_with ~domains:1 specf in
  check "domains=1 has no schedule" true (Executor.schedule seq = []);
  let exec = run_with ~domains:2 specf in
  let sched = Executor.schedule exec in
  check "domains=2 schedule nonempty" true (sched <> []);
  let scheduled =
    List.filter
      (fun (_, (e : Ir_compile.par_entry)) -> e.Ir_compile.par_fallback = None)
      sched
  in
  check "some loop actually dispatched" true (scheduled <> []);
  List.iter
    (fun (sect, (e : Ir_compile.par_entry)) ->
      check (sect ^ " workers") true (e.Ir_compile.par_workers = 2);
      let has_prefix p =
        String.length sect > String.length p
        && String.sub sect 0 (String.length p) = p
      in
      check (sect ^ " section prefix") true
        (has_prefix "forward/" || has_prefix "backward/"))
    scheduled;
  (* Weight-gradient accumulations are replayed sequentially somewhere
     in the backward schedule — that is the determinism mechanism. *)
  let replayed =
    List.exists
      (fun (_, (e : Ir_compile.par_entry)) -> e.Ir_compile.par_replayed <> [])
      sched
  in
  check "backward replays accumulations" true replayed;
  (* Dispatch count shows up in kernel stats. *)
  let stats = Executor.kernel_stats exec in
  check "par_loop counted" true
    (match List.assoc_opt "par_loop" stats with Some n -> n > 0 | None -> false)

(* ------------------------------------------------------------------ *)
(* Run_opts surface                                                    *)
(* ------------------------------------------------------------------ *)

let mlp_prog () =
  let spec = (List.assoc "mlp" stock_models) () in
  (spec, Pipeline.compile ~seed:42 Config.default spec.Models.net)

let run_opts_resolution () =
  let _, prog = mlp_prog () in
  (* Domains are clamped to >= 1. *)
  let e0 =
    Executor.prepare
      ~opts:(Executor.Run_opts.with_domains 0 Executor.Run_opts.default)
      prog
  in
  check_int "domains clamped" 1 (Executor.domains e0);
  (* opts.safety is honored. *)
  let ec =
    Executor.prepare
      ~opts:(Executor.Run_opts.with_safety Ir_compile.Checked Executor.Run_opts.default)
      prog
  in
  check "opts safety" true
    ((Executor.run_opts ec).Executor.Run_opts.safety = Ir_compile.Checked);
  (* Without it, unproven accesses are guarded. *)
  let ed = Executor.prepare prog in
  check "default safety" true
    ((Executor.run_opts ed).Executor.Run_opts.safety = Ir_compile.Guard_unproven)

let lookup_opt_cases () =
  let spec, prog = mlp_prog () in
  let exec = Executor.prepare prog in
  check "known buffer" true
    (Executor.lookup_opt exec (spec.Models.data_ens ^ ".value") <> None);
  check "unknown buffer" true
    (Executor.lookup_opt exec "no-such-buffer" = None);
  match Executor.lookup exec "no-such-buffer" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      let contains ~sub s =
        let n = String.length sub and m = String.length s in
        let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
        at 0
      in
      check "error names the buffer" true (contains ~sub:"no-such-buffer" msg)

(* ------------------------------------------------------------------ *)
(* Reductions across the parallel variable (§5.4.3 + Ir_deps)          *)
(* ------------------------------------------------------------------ *)

(* m[j] = m[j] op src[i, j]: the accumulation does not stride in the
   parallel variable, so Ir_deps classifies m as Reduction(op) and the
   partitioner replays it sequentially, in iteration order, after the
   barrier — for max as for sum — so the parallel result must be
   bit-identical to sequential at any domain count. *)
let reduction_rows = 37
let reduction_cols = 8

let reduction_stmts accum =
  [
    Ir.loop ~parallel:true "i" (Ir.int_ 0) (Ir.int_ reduction_rows)
      [
        Ir.loop "j" (Ir.int_ 0) (Ir.int_ reduction_cols)
          [ accum "m" [ Ir.var "j" ] (Ir.load "src" [ Ir.var "i"; Ir.var "j" ]) ];
      ];
  ]

let reduction_pool seed =
  let pool = Buffer_pool.create () in
  let rng = Rng.create seed in
  let src =
    Buffer_pool.alloc pool "src" (Shape.create [ reduction_rows; reduction_cols ])
  in
  Tensor.fill_uniform rng src ~lo:(-3.0) ~hi:3.0;
  let m = Buffer_pool.alloc pool "m" (Shape.create [ reduction_cols ]) in
  (* Non-trivial initial contents: the reduction must fold them in. *)
  Tensor.fill_uniform rng m ~lo:(-1.0) ~hi:1.0;
  pool

let image_of pool buf =
  let t = Buffer_pool.lookup pool buf in
  Array.init (Tensor.numel t) (fun idx -> Int64.bits_of_float (Tensor.get1 t idx))

let reduction_replays_bitwise (op, accum) () =
  let round2 pool compiled =
    (* Two rounds, the second on fresh data over a reset accumulator:
       nothing of round one may leak into round two. *)
    Ir_compile.run compiled ();
    let first = image_of pool "m" in
    let rng = Rng.create 99 in
    Tensor.fill_uniform rng (Buffer_pool.lookup pool "src") ~lo:(-9.0) ~hi:(-4.0);
    Tensor.fill (Buffer_pool.lookup pool "m") (-5.0);
    Ir_compile.run compiled ();
    (first, image_of pool "m")
  in
  let stmts = reduction_stmts accum in
  let seq =
    let pool = reduction_pool 7 in
    round2 pool (Ir_compile.compile ~lookup:(Buffer_pool.lookup pool) stmts)
  in
  List.iter
    (fun domains ->
      let pool = reduction_pool 7 in
      let compiled =
        Ir_compile.compile ~lookup:(Buffer_pool.lookup pool)
          ~runner:(Domain_pool.runner (Domain_pool.shared domains))
          stmts
      in
      (match Ir_compile.schedule compiled with
      | [ e ] ->
          check
            (Printf.sprintf "%s: no fallback @%d" op domains)
            true
            (e.Ir_compile.par_fallback = None);
          Alcotest.(check (list string))
            (Printf.sprintf "%s: replayed @%d" op domains)
            [ "m" ] e.Ir_compile.par_replayed
      | entries ->
          Alcotest.failf "%s: expected one scheduled loop, got %d" op
            (List.length entries));
      let par = round2 pool compiled in
      List.iter2
        (fun (a : Int64.t array) b ->
          Array.iteri
            (fun idx bits ->
              if not (Int64.equal bits b.(idx)) then
                Alcotest.failf "%s: m[%d] differs at %d domains: %h vs %h" op
                  idx domains
                  (Int64.float_of_bits bits)
                  (Int64.float_of_bits b.(idx)))
            a)
        [ fst seq; snd seq ]
        [ fst par; snd par ])
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation                                            *)
(* ------------------------------------------------------------------ *)

let token_exec ~domains =
  let _, prog = mlp_prog () in
  let tok = Ir_compile.token () in
  let opts =
    Executor.Run_opts.with_token tok
      (Executor.Run_opts.with_domains domains Executor.Run_opts.default)
  in
  (tok, Executor.prepare ~opts prog)

let token_cancellation_roundtrip () =
  let tok, exec = token_exec ~domains:2 in
  check "token installed" true
    (match Executor.token exec with Some t -> t == tok | None -> false);
  Executor.forward exec;
  (* A pre-cancelled token stops the run at entry, before any section. *)
  Ir_compile.cancel tok ~reason:"unit test";
  (match Executor.forward exec with
  | () -> Alcotest.fail "expected Cancelled"
  | exception Ir_compile.Cancelled reason ->
      check "carries the reason" true (String.equal reason "unit test"));
  (* The first cancel wins; later reasons are dropped. *)
  Ir_compile.cancel tok ~reason:"too late";
  check "first reason kept" true
    (Ir_compile.cancel_reason tok = Some "unit test");
  (* Re-arming restores normal execution. *)
  Ir_compile.reset_token tok;
  check "reset clears" false (Ir_compile.cancelled tok);
  Executor.forward exec;
  Executor.backward exec

(* Mid-run cancellation through the serving layer's hook: cancelling
   from [on_section] aborts before the next section runs, and after
   [scrub] + [reset_token] the executor produces a clean run again. *)
let on_section_cancels_midrun () =
  let tok, exec = token_exec ~domains:2 in
  let sections = ref 0 in
  (match
     Executor.forward_sections
       ~on_section:(fun _ _ ->
         incr sections;
         Ir_compile.cancel tok ~reason:"watchdog")
       exec
   with
  | () -> Alcotest.fail "expected Cancelled"
  | exception Ir_compile.Cancelled reason ->
      check "watchdog reason" true (String.equal reason "watchdog"));
  check_int "stopped after the cancelling section" 1 !sections;
  Executor.scrub exec;
  Ir_compile.reset_token tok;
  Executor.forward_sections exec

let suite =
  [
    Alcotest.test_case "pool covers all indices" `Quick pool_covers_all_indices;
    Alcotest.test_case "pool uses distinct domains" `Quick
      pool_runs_on_distinct_domains;
    Alcotest.test_case "pool propagates exceptions" `Quick
      pool_propagates_exceptions;
    Alcotest.test_case "pool heals armed kill" `Quick pool_heals_armed_kill;
    Alcotest.test_case "pool watchdog replaces stuck worker" `Quick
      pool_watchdog_replaces_stuck_worker;
    Alcotest.test_case "respawn_workers recycles all" `Quick
      pool_respawn_workers_recycles_all;
    Alcotest.test_case "pool of one inlines" `Quick pool_size_one_inlines;
    Alcotest.test_case "shared pools cached" `Quick shared_pools_are_cached;
    (* The max case keeps its name from when max reductions were
       privatized per worker; they now replay like sums. *)
    Alcotest.test_case "privatized max reduction bit-identical" `Quick
      (reduction_replays_bitwise ("max=", Ir.accum_max));
    Alcotest.test_case "sum reduction still replays" `Quick
      (reduction_replays_bitwise ("+=", Ir.accum));
  ]
  @ List.map determinism_case stock_models
  @ List.map respawn_determinism_case stock_models
  @ List.map int8_determinism_case
      (List.filter
         (fun (name, _) -> List.mem name [ "lenet"; "vgg-block" ])
         stock_models)
  @ [
      Alcotest.test_case "default prepare matches sequential" `Quick
        default_prepare_matches_sequential;
      Alcotest.test_case "schedule reports parallel loops" `Quick
        schedule_reports_parallel_loops;
      Alcotest.test_case "Run_opts resolution" `Quick run_opts_resolution;
      Alcotest.test_case "lookup_opt" `Quick lookup_opt_cases;
      Alcotest.test_case "token cancellation roundtrip" `Quick
        token_cancellation_roundtrip;
      Alcotest.test_case "on_section cancels mid-run" `Quick
        on_section_cancels_midrun;
    ]
