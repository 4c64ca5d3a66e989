(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 7). Run with no arguments for everything, or pass
   figure names: fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20
   ablation. `--bechamel` runs the statistical micro-benchmarks. *)

let all =
  [
    ("fig13", fun () -> Figures.fig13 ());
    ("fig14", fun () -> Figures.fig14 ());
    ("fig15", fun () -> Figures.fig15 ());
    ("fig16", fun () -> Figures.fig16 ());
    ("fig17", fun () -> Figures.fig17 ());
    ("fig18", fun () -> Figures.fig18 ());
    ("fig19", fun () -> Figures.fig19 ());
    ("fig20", fun () -> Figures.fig20 ());
    ("ablation", Ablation.run);
    ("serve", Serve.run);
    ("fleet", Fleet_bench.run);
    ("scaling", Micro.scaling);
    ("precision", Precision_bench.run);
    ("cancel", Cancel_bench.run);
    ("tuned", Tuned_bench.run);
  ]

let () =
  (* Pipeline.compile_pair reads the tuning cache, and the fleet and
     serve benches reach it through Registry: turn it off so their rows
     do not depend on what `latte tune' last cached. The tuned bench
     passes its own cache directory. *)
  Unix.putenv "LATTE_TUNE_CACHE" "off";
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] ->
      print_endline "Latte reproduction benchmarks (see EXPERIMENTS.md)";
      List.iter (fun (_, f) -> f ()) all
  | [ "--bechamel" ] -> Micro.run ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name all with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown benchmark %s; known: %s --bechamel\n" name
                (String.concat " " (List.map fst all));
              exit 1)
        names
