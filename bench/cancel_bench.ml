(* Cancellation-token overhead across the six stock models: forward and
   backward wall time with no token vs an armed (never-cancelled) token
   compiled into every section. The token is polled only at section
   entries and outermost loop iterations, so the overhead must stay
   within measurement noise — the acceptance bar is <= 1% on the total.
   Both executors are timed in the same rounds, one forward+backward
   each per round, alternating which goes first
   ([Bench_common.interleaved]). One human row per model, followed by
   its bench rows. *)

let stock_models : (string * (unit -> Models.spec)) list =
  let scale = { Models.image = 32; width_div = 8; fc_div = 32 } in
  [
    ( "mlp",
      fun () -> Models.mlp ~batch:16 ~n_inputs:256 ~hidden:[ 64; 32 ] ~n_classes:10 );
    ("lenet", fun () -> Models.lenet ~batch:8 ~image:24 ~n_classes:10 ());
    ("vgg-block", fun () -> Models.vgg_first_block ~batch:4 ~scale);
    ("alexnet", fun () -> Models.alexnet ~batch:2 ~scale ());
    ("vgg", fun () -> Models.vgg ~batch:1 ~scale);
    ("overfeat", fun () -> Models.overfeat ~batch:1 ~scale);
  ]

let rounds = 21
let bar_pct = 1.0

(* An executor with its inputs filled. *)
let prepare ?opts specf =
  snd (Bench_common.measure_latte ?opts ~iters:1 (specf ()).Models.net)

let step exec () =
  Executor.forward exec;
  Executor.backward exec

(* The token's overhead in each round, in %: a round's two steps ran
   back to back, so their ratio cancels most of the host's drift. *)
let overheads tp tt = Array.map2 (fun p t -> ((t /. p) -. 1.0) *. 100.0) tp tt

(* The bar against the rounds' p10-p90 spread of the overhead: a bar
   inside the spread is one these runs cannot resolve. *)
let verdict ov =
  let p10 = Executor.percentile 0.1 ov and p90 = Executor.percentile 0.9 ov in
  if p90 <= bar_pct then "within"
  else if p10 > bar_pct then "over"
  else "unresolved"

let run () =
  Bench_common.header
    "cancellation-token overhead (armed token vs none, forward+backward)";
  Printf.printf "  %-12s %12s %12s %10s  %-16s  %s\n" "model" "plain ms"
    "token ms" "overhead" "p10..p90 %" "1% bar";
  let pct = Executor.percentile in
  let times =
    List.map
      (fun (name, specf) ->
        let plain = prepare specf in
        let opts =
          Executor.Run_opts.with_token (Ir_compile.token ())
            Executor.Run_opts.default
        in
        let tp, tt =
          Bench_common.interleaved ~rounds (step plain)
            (step (prepare ~opts specf))
        in
        let ov = overheads tp tt in
        Printf.printf "  %-12s %12.3f %12.3f %9.2f%%  %+7.2f..%+-7.2f  %s\n"
          name (pct 0.5 tp) (pct 0.5 tt) (pct 0.5 ov) (pct 0.1 ov)
          (pct 0.9 ov) (verdict ov);
        let row = Bench_common.emit ~bench:"cancel" ~case:name ~preset:"f32" in
        row ~unit:"ms" ~samples:tp "plain_ms" (pct 0.5 tp);
        row ~unit:"ms" ~samples:tt "token_ms" (pct 0.5 tt);
        row ~unit:"%" ~samples:ov "overhead_pct" (pct 0.5 ov);
        (tp, tt))
      stock_models
  in
  (* Aggregate on total time, not the per-model mean: the small models'
     relative jitter would otherwise dominate the average. Round [r]'s
     total sums every model's round [r]. *)
  let total side =
    Array.init rounds (fun r ->
        List.fold_left (fun acc ts -> acc +. (side ts).(r)) 0.0 times)
  in
  let ov = overheads (total fst) (total snd) in
  Printf.printf
    "  overall overhead %.2f%% of total time (p10..p90 %+.2f..%+.2f%%; \
     acceptance bar: <= 1%%): %s\n"
    (pct 0.5 ov) (pct 0.1 ov) (pct 0.9 ov) (verdict ov);
  Bench_common.note
    (Printf.sprintf
       "ms = median of %d rounds, each timing one step per executor, \
        alternating which goes first; overhead = median of the rounds' \
        token/plain ratios; unresolved = the 1%% bar lies inside their \
        p10..p90 spread"
       rounds)
