(* Tuned-vs-default forward time over the six stock models: each model
   is autotuned with `Tuner.tune` (Small budget, private cache dir so
   runs are reproducible from a cold cache) and the winner's measured
   time is compared against the default schedule's. Bit-identity is
   asserted inside the tuner for every measured candidate, so every
   reported speedup computes exactly the same outputs. One human row per
   model, followed by its bench rows. *)

let scale = Bench_common.bench_scale

let stock : (string * (unit -> Net.t)) list =
  [
    ( "mlp",
      fun () ->
        (Models.mlp ~batch:4 ~n_inputs:(scale.Models.image * scale.Models.image)
           ~hidden:[ 64 ] ~n_classes:10)
          .Models.net );
    ( "lenet",
      fun () ->
        (Models.lenet ~batch:4 ~image:scale.Models.image ~n_classes:10 ())
          .Models.net );
    ("vgg-block", fun () -> (Models.vgg_first_block ~batch:4 ~scale).Models.net);
    ("alexnet", fun () -> (Models.alexnet ~batch:2 ~scale ()).Models.net);
    ("vgg", fun () -> (Models.vgg ~batch:1 ~scale).Models.net);
    ("overfeat", fun () -> (Models.overfeat ~batch:1 ~scale).Models.net);
  ]

let run () =
  Bench_common.header "tuned: autotuned schedule vs default (forward)";
  Bench_common.note
    "Small budget, cold private cache; bit-identity asserted per candidate";
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ()) "latte-tune-bench"
  in
  Printf.printf "  %-10s %12s %12s %9s  %s\n" "model" "default-ms" "tuned-ms"
    "speedup" "winning schedule";
  let improved = ref 0 in
  List.iter
    (fun (name, build) ->
      let r =
        Tuner.tune ~budget:Tuner.Small ~seed:1 ~cache_dir ~force:true
          ~config:Config.default ~build ()
      in
      let speedup = r.Tuner.default_seconds /. r.Tuner.tuned_seconds in
      if speedup > 1.0 then incr improved;
      let descr = Schedule.describe r.Tuner.winner in
      Printf.printf "  %-10s %12.3f %12.3f %8.2fx  %s\n" name
        (r.Tuner.default_seconds *. 1e3)
        (r.Tuner.tuned_seconds *. 1e3)
        speedup descr;
      let row = Bench_common.emit ~bench:"tuned" ~case:name ~preset:"f32" in
      row ~unit:"ms" "default_ms" (r.Tuner.default_seconds *. 1e3);
      row ~unit:"ms" "tuned_ms" ~detail:descr (r.Tuner.tuned_seconds *. 1e3);
      row ~unit:"x" "speedup" speedup;
      row ~unit:"count" "trials" (float_of_int (List.length r.Tuner.trials));
      (* The tuner rejects every candidate whose outputs differ from
         the default's, so the winner's are identical. *)
      row ~unit:"bool" "bit_identical" 1.0)
    stock;
  Printf.printf "  # %d/%d models improved\n" !improved (List.length stock)
