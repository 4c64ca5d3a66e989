(* Cancellation-token overhead across the six stock models: forward and
   backward wall time with no token vs an armed (never-cancelled) token
   compiled into every section. The token is polled only at section
   entries and outermost loop iterations, so the overhead must stay
   within measurement noise — the acceptance bar is <= 1% on the total.
   One human row per model, followed by its bench rows. *)

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

(* Best of two measurement rounds per side: the min discards one-sided
   scheduler hiccups, which otherwise dwarf a sub-1% effect on the
   small models. *)
let best_of_2 ?opts specf =
  let once () =
    Bench_common.both
      (fst (Bench_common.measure_latte ?opts ~iters:5 (specf ()).Models.net))
  in
  Float.min (once ()) (once ())

let run () =
  Bench_common.header
    "cancellation-token overhead (armed token vs none, forward+backward)";
  Printf.printf "  %-12s %12s %12s %10s\n" "model" "plain ms" "token ms"
    "overhead";
  let rows =
    List.map
      (fun (name, specf) ->
        let t0 = best_of_2 specf in
        let opts =
          Executor.Run_opts.with_token (Ir_compile.token ())
            Executor.Run_opts.default
        in
        let t1 = best_of_2 ~opts specf in
        let overhead_pct = ((t1 /. t0) -. 1.0) *. 100.0 in
        Printf.printf "  %-12s %12.3f %12.3f %9.2f%%\n" name (t0 *. 1e3)
          (t1 *. 1e3) overhead_pct;
        let row = Bench_common.emit ~bench:"cancel" ~case:name ~preset:"f32" in
        row ~unit:"ms" "plain_ms" (t0 *. 1e3);
        row ~unit:"ms" "token_ms" (t1 *. 1e3);
        row ~unit:"%" "overhead_pct" overhead_pct;
        (t0, t1))
      stock_models
  in
  (* Aggregate on total time, not the per-model mean: the small models'
     relative jitter would otherwise dominate the average. *)
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let overall = ((sum snd /. sum fst) -. 1.0) *. 100.0 in
  Printf.printf
    "  overall overhead %.2f%% of total time (acceptance bar: <= 1%%)\n" overall;
  Bench_common.note
    "token polls sit at section entries and outermost loop iterations only; \
     per-model jitter is timer noise"
