(* Golden-file tests: human-readable compiler output pinned in
   golden/*.txt. A pass changing the synthesized or optimized IR (or a
   dependence-analyzer change reclassifying a buffer) shows up as a
   readable diff here rather than only as a numeric drift elsewhere.
   Regenerate with
     cd test && LATTE_UPDATE_GOLDEN=1 ../_build/default/test/test_main.exe test golden *)

(* dune runtest runs with cwd at the test build dir (where the (deps
   (glob_files golden/*.txt)) copies land); a directly-invoked exe may
   run from the repo root. *)
let golden_path name =
  if Sys.file_exists "golden" then "golden/" ^ name else "test/golden/" ^ name

let mlp_dump () =
  let spec = Models.mlp ~batch:4 ~n_inputs:16 ~hidden:[ 8 ] ~n_classes:4 in
  Pipeline.dump (Pipeline.compile ~seed:3 Config.default spec.Models.net)

(* The `latte analyze --races` table for lenet under the default
   preset: every parallel loop's per-buffer dependence verdict. Pins
   both the set of parallel loops (including the ones the Ir_deps sweep
   annotates beyond the syntactic batch-loop rule) and their proofs —
   a Conflicting appearing here is a miscompile, not a style drift. *)
let lenet_races () =
  let spec = Models.lenet ~batch:2 ~image:16 ~n_classes:4 () in
  let prog = Pipeline.compile ~seed:3 Config.default spec.Models.net in
  Ir_deps.report_table (Program.races prog)

(* Which code-generation path every stock model takes: the
   [Executor.kernel_stats] counters (innermost-loop kernels, guarded
   accesses, packed GEMM kernels, parallel-loop decisions) of the six
   CLI models at bench scale and batch 4, one row per counter, so adding
   or deleting a kernel shows as the rows it moves. The default pass
   list runs f32 and int8 at 1 and 2 domains; int8 quantizes like the
   registry: calibrated on uniform [0, 1) inputs, keeping the input and
   output buffers f32. Then, f32 at 1 domain, every other pass list a
   bench row measures, each under a "passes:" line: Config.unoptimized
   (Fig. 13's "no optimizations" bar, ablation "nothing", and the
   registry's reference program), Fig. 13's "+gemm" (also the
   Caffe-like config) and the ablation rows. Domains and precision are
   explicit, so the LATTE_DOMAINS, LATTE_PRECISION and tuning-cache
   reruns produce the same table. *)
let kernel_census () =
  let scale = Models.bench_scale and batch = 4 in
  let models =
    [
      ( "mlp",
        fun () ->
          Models.mlp ~batch ~n_inputs:(scale.image * scale.image) ~hidden:[ 64 ]
            ~n_classes:10 );
      ("lenet", fun () -> Models.lenet ~batch ~image:scale.image ~n_classes:10 ());
      ("vgg-block", fun () -> Models.vgg_first_block ~batch ~scale);
      ("alexnet", fun () -> Models.alexnet ~batch ~scale ());
      ("vgg", fun () -> Models.vgg ~batch ~scale);
      ("overfeat", fun () -> Models.overfeat ~batch ~scale);
    ]
  in
  let rows = Buffer.create 4096 in
  let section base runs =
    List.iter
      (fun (name, build) ->
        List.iter
          (fun (precision, domains) ->
            let spec = build () in
            let config = Config.with_flags ~num_domains:domains ~precision base in
            let exec =
              Executor.prepare
                ~opts:
                  (Executor.Run_opts.with_domains domains Executor.Run_opts.default)
                (Pipeline.compile ~seed:42 config spec.Models.net)
            in
            let exec =
              match precision with
              | `F32 -> exec
              | `I8 ->
                  let input_buf = spec.Models.data_ens ^ ".value" in
                  let input = Executor.lookup exec input_buf in
                  let rng = Rng.create 7 in
                  let feed _ = Tensor.fill_uniform rng input ~lo:0.0 ~hi:1.0 in
                  fst
                    (Quantize.quantize ~feed
                       ~keep:[ input_buf; spec.Models.output_ens ^ ".value" ]
                       exec)
            in
            List.iter
              (fun (counter, n) ->
                Printf.bprintf rows "%-9s %-4s %d  %-14s %d\n" name
                  (Precision.preset_to_string precision)
                  domains counter n)
              (Executor.kernel_stats exec))
          runs)
      models
  in
  section Config.default [ (`F32, 1); (`F32, 2); (`I8, 1); (`I8, 2) ];
  List.iter
    (fun base ->
      Printf.bprintf rows "passes: %s\n" (String.concat "," base.Config.passes);
      section base [ (`F32, 1) ])
    [
      Config.unoptimized;
      Config.with_flags ~passes:[ "gemm"; "batch-gemm"; "simplify" ] Config.unoptimized;
      Config.without [ "gemm"; "batch-gemm" ] Config.default;
      Config.without [ "batch-gemm" ] Config.default;
      Config.without [ "fuse" ] Config.default;
      Config.without [ "tile"; "fuse" ] Config.default;
      Config.without [ "layout" ] Config.default;
      Config.without [ "fuse"; "parallelize" ] Config.default;
      Config.without [ "parallelize" ] Config.default;
    ];
  Buffer.contents rows

(* The seven stock fleet scenarios over two small models (f32, 1 domain,
   tuning cache off, seed 7): each run's summary line and its event
   timeline. A Compiled event prints without its wall time and the
   registry-key digest: the first is not simulated, and the second
   fingerprints the compile options rather than the traffic. *)
let fleet_scenarios () =
  let event_line = function
    | Fleet.Compiled { model; version; at; _ } ->
        Printf.sprintf "t=%.6fs  %s: compiled v%d" at model version
    | e -> Fleet.event_to_string e
  in
  let saved = Option.value ~default:"" (Sys.getenv_opt "LATTE_TUNE_CACHE") in
  Unix.putenv "LATTE_TUNE_CACHE" "off";
  Fun.protect ~finally:(fun () -> Unix.putenv "LATTE_TUNE_CACHE" saved)
  @@ fun () ->
  let config = Config.with_flags ~num_domains:1 ~precision:`F32 Config.default in
  let b = Buffer.create 4096 in
  List.iter
    (fun name ->
      let registry =
        Registry.create
          ~opts:(Executor.Run_opts.with_domains 1 Executor.Run_opts.default)
          ()
      in
      let register model build =
        let spec = build () in
        Registry.register registry ~name:model ~seed:3 ~config
          ~input_buf:(spec.Models.data_ens ^ ".value")
          ~output_buf:(spec.Models.output_ens ^ ".value")
          (fun () -> (build ()).Models.net);
        (model, spec.Models.output_ens ^ ".value")
      in
      let models =
        [
          register "mlp" (fun () ->
              Models.mlp ~batch:4 ~n_inputs:64 ~hidden:[ 16 ] ~n_classes:10);
          register "lenet" (fun () ->
              Models.lenet ~batch:4 ~image:16 ~n_classes:10 ());
        ]
      in
      let sc = Scenario.stock ~models name in
      let fleet =
        Fleet.create ~faults:sc.Scenario.fleet_faults ~registry
          ~tenants:sc.Scenario.tenants ()
      in
      let s = Scenario.run ~seed:7 fleet sc in
      Printf.bprintf b "%s\n" (Scenario.summary_to_string s);
      List.iter
        (fun e -> Printf.bprintf b "  %s\n" (event_line e))
        (Fleet.events fleet))
    Scenario.names;
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden name current () =
  let path = golden_path name in
  let dump = current () in
  match Sys.getenv_opt "LATTE_UPDATE_GOLDEN" with
  | Some _ ->
      let oc = open_out_bin path in
      output_string oc dump;
      close_out oc
  | None ->
      let expected = read_file path in
      if String.equal expected dump then ()
      else begin
        (* Point at the first differing line instead of dumping both
           multi-hundred-line programs. *)
        let el = String.split_on_char '\n' expected
        and dl = String.split_on_char '\n' dump in
        let rec first_diff n = function
          | e :: es, d :: ds ->
              if String.equal e d then first_diff (n + 1) (es, ds)
              else Some (n, e, d)
          | e :: _, [] -> Some (n, e, "<end of dump>")
          | [], d :: _ -> Some (n, "<end of golden>", d)
          | [], [] -> None
        in
        match first_diff 1 (el, dl) with
        | Some (n, e, d) ->
            Alcotest.failf
              "output deviates from golden/%s at line %d:\n\
              \  golden: %s\n\
              \  dump:   %s\n\
               (regenerate with LATTE_UPDATE_GOLDEN=1 if intended)"
              name n e d
        | None ->
            Alcotest.failf "output differs from golden/%s only in line endings"
              name
      end

let suite =
  [
    Alcotest.test_case "mlp IR dump matches golden" `Quick
      (check_golden "mlp_ir.txt" mlp_dump);
    Alcotest.test_case "lenet races table matches golden" `Quick
      (check_golden "lenet_races.txt" lenet_races);
    Alcotest.test_case "stock kernel census matches golden" `Quick
      (check_golden "kernel_census.txt" kernel_census);
    Alcotest.test_case "stock fleet scenarios match golden" `Quick
      (check_golden "fleet_scenarios.txt" fleet_scenarios);
  ]
