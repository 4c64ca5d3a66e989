(* The `latte tune` stack: LATTE_* environment parsing, Schedule
   canonicalization and cache-payload round-trips, Tune_cache
   durability (CRC, schema version, corrupt/truncated entries),
   fingerprint invariance across configs, tuning determinism under an
   injected measure, automatic pickup by Pipeline.compile_pair (the one
   cache reader), and the bit-identity guarantee tuned-vs-default over
   every stock model. *)

(* ---- environment parsing ------------------------------------------ *)

let test_env_domains () =
  let p = Latte_env.parse_domains in
  Alcotest.(check int) "missing" 1 (p None);
  Alcotest.(check int) "empty" 1 (p (Some ""));
  Alcotest.(check int) "valid" 3 (p (Some "3"));
  Alcotest.(check int) "malformed" 1 (p (Some "three"));
  Alcotest.(check int) "trailing junk" 1 (p (Some "2x"));
  Alcotest.(check int) "zero clamps" 1 (p (Some "0"));
  Alcotest.(check int) "negative clamps" 1 (p (Some "-4"))

let preset = Alcotest.testable (Fmt.of_to_string Precision.preset_to_string) ( = )

let test_env_precision () =
  let p = Latte_env.parse_precision in
  Alcotest.(check preset) "missing" `F32 (p None);
  Alcotest.(check preset) "f16 is malformed" `F32 (p (Some "f16"));
  Alcotest.(check preset) "int8" `I8 (p (Some "int8"));
  Alcotest.(check preset) "malformed" `F32 (p (Some "float64"));
  Alcotest.(check preset) "empty" `F32 (p (Some ""))

let test_env_tune_cache () =
  let p = Latte_env.parse_tune_cache in
  let show = function
    | Latte_env.Default -> "default"
    | Latte_env.Off -> "off"
    | Latte_env.Path d -> "path:" ^ d
  in
  let tc = Alcotest.testable (Fmt.of_to_string show) ( = ) in
  Alcotest.(check tc) "missing" Latte_env.Default (p None);
  Alcotest.(check tc) "empty" Latte_env.Default (p (Some ""));
  Alcotest.(check tc) "off" Latte_env.Off (p (Some "off"));
  Alcotest.(check tc) "OFF case-insensitive" Latte_env.Off (p (Some "OFF"));
  Alcotest.(check tc) "path" (Latte_env.Path "/x/y") (p (Some "/x/y"))

(* Mutate the real environment through one test, restoring a state
   ("off") that cannot leak a shared cache into later tests. *)
let test_config_of_env () =
  Unix.putenv "LATTE_DOMAINS" "4";
  Unix.putenv "LATTE_PRECISION" "int8";
  Unix.putenv "LATTE_TUNE_CACHE" "/tmp/somewhere";
  let e = Config.of_env () in
  Alcotest.(check int) "domains" 4 e.Config.env_domains;
  Alcotest.(check preset) "precision" `I8 e.Config.env_precision;
  Alcotest.(check bool) "cache path" true
    (e.Config.env_tune_cache = Latte_env.Path "/tmp/somewhere");
  Unix.putenv "LATTE_DOMAINS" "not-a-number";
  Unix.putenv "LATTE_PRECISION" "bf128";
  Unix.putenv "LATTE_TUNE_CACHE" "off";
  let e = Config.of_env () in
  Alcotest.(check int) "malformed domains -> 1" 1 e.Config.env_domains;
  Alcotest.(check preset) "malformed precision -> f32" `F32
    e.Config.env_precision;
  Alcotest.(check bool) "off" true (e.Config.env_tune_cache = Latte_env.Off);
  Alcotest.(check bool) "cache disabled" false (Tune_cache.enabled ());
  Unix.putenv "LATTE_DOMAINS" "";
  Unix.putenv "LATTE_PRECISION" ""

(* ---- Schedule canonical form and payloads ------------------------- *)

let test_schedule_canonical () =
  let s1 =
    Schedule.empty |> Schedule.with_tile "a+b" 4 |> Schedule.with_tile "c" 2
    |> Schedule.without_fusion "d+e"
  in
  let s2 =
    Schedule.empty |> Schedule.without_fusion "d+e" |> Schedule.with_tile "c" 2
    |> Schedule.with_tile "a+b" 4
  in
  Alcotest.(check bool) "order-independent equal" true (Schedule.equal s1 s2);
  Alcotest.(check string) "same digest" (Schedule.digest s1) (Schedule.digest s2);
  Alcotest.(check int) "digest is 8 hex chars" 8
    (String.length (Schedule.digest s1));
  Alcotest.(check string) "empty describes as default" "default"
    (Schedule.describe Schedule.empty);
  Alcotest.(check bool) "replacing a tile wins" true
    (Schedule.tile_for (Schedule.with_tile "c" 9 s1) "c" = Some 9)

let test_schedule_payload_roundtrip () =
  let s =
    Schedule.empty |> Schedule.with_tile "conv1+relu1" 8
    |> Schedule.with_tile "ip1" 2
    |> Schedule.without_fusion "pool1+conv2"
    |> Schedule.with_domains 2
  in
  let s' = Schedule.of_payload (Schedule.to_payload s) in
  Alcotest.(check bool) "round-trip preserves equal" true (Schedule.equal s s');
  Alcotest.(check string) "payload source is cache" "cache"
    (Schedule.source_name s');
  (* Forward compatibility: unknown and malformed entries are skipped,
     the rest still parse. A [precision] entry, which older payloads
     may carry, is just another unknown name. *)
  let s'' =
    Schedule.of_payload
      (("future.knob", "42") :: ("tile.ok", "4")
      :: ("tile.bad", "many") :: ("domains", "-3") :: ("precision", "f16")
      :: Schedule.to_payload s)
  in
  Alcotest.(check bool) "known entries survive junk" true
    (Schedule.tile_for s'' "conv1+relu1" = Some 8);
  Alcotest.(check bool) "well-formed extra tile kept" true
    (Schedule.tile_for s'' "ok" = Some 4);
  Alcotest.(check bool) "malformed tile skipped" true
    (Schedule.tile_for s'' "bad" = None)

let test_schedule_sanitize () =
  let s =
    Schedule.empty |> Schedule.with_tile "good" 4 |> Schedule.with_tile "bad" 0
  in
  let s', warnings = Schedule.sanitize s in
  Alcotest.(check int) "one warning" 1 (List.length warnings);
  Alcotest.(check bool) "good kept" true (Schedule.tile_for s' "good" = Some 4);
  Alcotest.(check bool) "bad dropped" true (Schedule.tile_for s' "bad" = None)

(* ---- Tune_cache durability ---------------------------------------- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "latte-tune-test-%d-%d" (Unix.getpid ()) !n)
    in
    d

let sample_key =
  Tune_cache.key ~fingerprint:"fp" ~machine:"m" ~precision:"f32" ~passes:"gemm"

let test_cache_roundtrip () =
  let dir = fresh_dir () in
  let payload = [ ("tile.conv1", "8"); ("domains", "2"); ("tuned_ms", "1.5") ] in
  Tune_cache.store ~dir ~key:sample_key payload;
  (match Tune_cache.lookup ~dir ~key:sample_key with
  | Some p -> Alcotest.(check bool) "payload preserved" true (p = payload)
  | None -> Alcotest.fail "stored entry did not look up");
  Alcotest.(check bool) "unknown key misses" true
    (Tune_cache.lookup ~dir
       ~key:(Tune_cache.key ~fingerprint:"other" ~machine:"m" ~precision:"f32"
               ~passes:"gemm")
    = None)

let entry_path dir = Filename.concat dir (sample_key ^ ".tune")

(* Replace the first occurrence of [needle] in [s] with [by]. *)
let replace ~needle ~by s =
  let nl = String.length needle in
  let rec find i =
    if i + nl > String.length s then s
    else if String.sub s i nl = needle then
      String.sub s 0 i ^ by ^ String.sub s (i + nl) (String.length s - i - nl)
    else find (i + 1)
  in
  find 0

let rewrite path f =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f s);
  close_out oc

let test_cache_rejects_damage () =
  let store dir =
    Tune_cache.store ~dir ~key:sample_key [ ("tile.ip1", "4") ]
  in
  let misses what dir =
    Alcotest.(check bool) what true
      (Tune_cache.lookup ~dir ~key:sample_key = None)
  in
  (* Corrupt one payload byte: the CRC catches it. *)
  let dir = fresh_dir () in
  store dir;
  rewrite (entry_path dir) (fun s ->
      let b = Bytes.of_string s in
      let i = String.length s - 2 in
      Bytes.set b i (if Bytes.get b i = '4' then '5' else '4');
      Bytes.to_string b);
  misses "corrupt payload" dir;
  (* Truncated mid-payload. *)
  let dir = fresh_dir () in
  store dir;
  rewrite (entry_path dir) (fun s -> String.sub s 0 (String.length s - 3));
  misses "truncated" dir;
  (* A future schema version must be rejected, not misparsed. *)
  let dir = fresh_dir () in
  store dir;
  rewrite (entry_path dir) (replace ~needle:"version 1" ~by:"version 99");
  misses "future schema version" dir;
  (* Wrong magic. *)
  let dir = fresh_dir () in
  store dir;
  rewrite (entry_path dir) (fun s -> "NOTLATTE" ^ s);
  misses "wrong magic" dir;
  (* Key line disagreeing with the filename. *)
  let dir = fresh_dir () in
  store dir;
  rewrite (entry_path dir)
    (replace ~needle:sample_key
       ~by:(String.map (function 'a' -> 'b' | c -> c) sample_key));
  misses "foreign key" dir;
  (* Missing entirely. *)
  misses "missing dir" (fresh_dir ())

let test_cache_validates_names () =
  let dir = fresh_dir () in
  Alcotest.check_raises "= in name"
    (Invalid_argument "Tune_cache.store: invalid payload entry \"a=b\"=\"1\"")
    (fun () -> Tune_cache.store ~dir ~key:sample_key [ ("a=b", "1") ])

(* ---- fingerprints -------------------------------------------------- *)

let tiny_mlp () =
  (Models.mlp ~batch:2 ~n_inputs:16 ~hidden:[ 8 ] ~n_classes:4).Models.net

let test_fingerprint_invariance () =
  (* The cache key must not depend on which config computed it: the
     tuner fingerprints the default compile, compile_pair fingerprints
     the unoptimized reference — both must agree. *)
  let fp config = Program.fingerprint (Pipeline.compile ~seed:1 config (tiny_mlp ())) in
  let base = fp Config.default in
  Alcotest.(check string) "unoptimized reference agrees" base
    (fp Config.unoptimized);
  let sched = Schedule.with_tile "relu1" 1 Schedule.empty in
  Alcotest.(check string) "scheduled compile agrees" base
    (fp (Config.with_flags ~schedule:sched Config.default));
  let other =
    Program.fingerprint
      (Pipeline.compile ~seed:1 Config.default
         (Models.mlp ~batch:2 ~n_inputs:16 ~hidden:[ 9 ] ~n_classes:4).Models.net)
  in
  Alcotest.(check bool) "different network differs" false (base = other)

(* ---- tuning: determinism, cache flow, pickup ---------------------- *)

(* A deterministic synthetic measure: the default schedule is "slow",
   every candidate "fast" by a margin depending only on its canonical
   description — so the search always finds the same winner without a
   single wall-clock read. *)
let synth_measure exec =
  match (Executor.program exec).Program.schedule_descr with
  | None -> 1.0
  | Some d -> 0.25 +. (float_of_int (Hashtbl.hash d mod 1000) /. 4000.0)

let tune_tiny ?cache_dir ?(use_cache = false) ?force () =
  Tuner.tune ~budget:Tuner.Small ~seed:1 ~max_domains:1 ~use_cache ?cache_dir
    ?force ~measure:synth_measure ~config:Config.default ~build:tiny_mlp ()

let test_tune_deterministic () =
  let r1 = tune_tiny () and r2 = tune_tiny () in
  Alcotest.(check bool) "same winner" true
    (Schedule.equal r1.Tuner.winner r2.Tuner.winner);
  Alcotest.(check bool) "winner beats default" true
    (not (Schedule.is_empty r1.Tuner.winner));
  Alcotest.(check (float 1e-12)) "same tuned time" r1.Tuner.tuned_seconds
    r2.Tuner.tuned_seconds;
  Alcotest.(check bool) "no cache involved" true (r1.Tuner.cache_key = None)

let test_tune_cache_hit () =
  let dir = fresh_dir () in
  let r1 = tune_tiny ~cache_dir:dir ~use_cache:true () in
  Alcotest.(check bool) "first run searches" false r1.Tuner.from_cache;
  let r2 = tune_tiny ~cache_dir:dir ~use_cache:true () in
  Alcotest.(check bool) "second run is a cache hit" true r2.Tuner.from_cache;
  Alcotest.(check int) "no trials on a hit" 0 (List.length r2.Tuner.trials);
  Alcotest.(check bool) "same winner from cache" true
    (Schedule.equal r1.Tuner.winner r2.Tuner.winner);
  Alcotest.(check string) "cached winner source" "cache"
    (Schedule.source_name r2.Tuner.winner);
  let r3 = tune_tiny ~cache_dir:dir ~use_cache:true ~force:true () in
  Alcotest.(check bool) "force re-tunes" false r3.Tuner.from_cache

let test_compile_pair_pickup () =
  let dir = fresh_dir () in
  let r = tune_tiny ~cache_dir:dir ~use_cache:true () in
  Alcotest.(check bool) "tuning stored an entry" true (r.Tuner.cache_key <> None);
  Unix.putenv "LATTE_TUNE_CACHE" dir;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "LATTE_TUNE_CACHE" "off")
    (fun () ->
      let fast, reference =
        Pipeline.compile_pair ~seed:1 Config.default tiny_mlp
      in
      (match (Executor.program fast).Program.schedule_descr with
      | Some d ->
          Alcotest.(check bool) "fast program carries the cached schedule" true
            (String.length d > 6 && String.sub d 0 6 = "cache:")
      | None -> Alcotest.fail "compile_pair ignored the tuning cache");
      Alcotest.(check bool) "reference stays unscheduled" true
        ((Executor.program reference).Program.schedule_descr = None);
      (* An explicit schedule always wins over the cache. *)
      let explicit = Schedule.with_tile "relu1" 1 Schedule.empty in
      let fast', _ =
        Pipeline.compile_pair ~seed:1
          (Config.with_flags ~schedule:explicit Config.default)
          tiny_mlp
      in
      match (Executor.program fast').Program.schedule_descr with
      | Some d ->
          Alcotest.(check bool) "explicit schedule wins" true
            (String.length d > 9 && String.sub d 0 9 = "explicit:")
      | None -> Alcotest.fail "explicit schedule not recorded")

(* The cached domain count reaches both compile_pair executors even over
   the caller's run options, while Executor.prepare never reads the
   cache and runs at the count it is given. *)
let test_compile_pair_domains_pickup () =
  let dir = fresh_dir () in
  let prog = Pipeline.compile ~seed:1 Config.default (tiny_mlp ()) in
  Tune_cache.store ~dir
    ~key:(Tuner.cache_key Config.default prog)
    [ ("domains", "2") ];
  let one = Executor.Run_opts.with_domains 1 Executor.Run_opts.default in
  Unix.putenv "LATTE_TUNE_CACHE" dir;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "LATTE_TUNE_CACHE" "off")
    (fun () ->
      let fast, reference =
        Pipeline.compile_pair ~seed:1 ~opts:one Config.default tiny_mlp
      in
      Alcotest.(check int) "compile_pair adopts the cached count" 2
        (Executor.domains fast);
      Alcotest.(check int) "the reference runs at it too" 2
        (Executor.domains reference);
      Alcotest.(check int) "prepare runs at the count it is given" 1
        (Executor.domains (Executor.prepare ~opts:one prog)))

(* The pass set is part of the key: a schedule tuned without fusion is
   not applied to a default compile. *)
let test_cache_key_passes () =
  let dir = fresh_dir () in
  let prog = Pipeline.compile ~seed:1 Config.default (tiny_mlp ()) in
  let no_fuse = Config.without [ "fuse" ] Config.default in
  Tune_cache.store ~dir ~key:(Tuner.cache_key no_fuse prog) [ ("domains", "2") ];
  Alcotest.(check string) "normalized: -tile and -tile,-fuse share a key"
    (Tuner.cache_key (Config.without [ "tile"; "fuse" ] Config.default) prog)
    (Tuner.cache_key (Config.without [ "tile" ] Config.default) prog);
  let one = Executor.Run_opts.with_domains 1 Executor.Run_opts.default in
  Unix.putenv "LATTE_TUNE_CACHE" dir;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "LATTE_TUNE_CACHE" "off")
    (fun () ->
      let fast, _ =
        Pipeline.compile_pair ~seed:1 ~opts:one Config.default tiny_mlp
      in
      Alcotest.(check int) "default compile misses the -fuse entry" 1
        (Executor.domains fast);
      let fast, _ = Pipeline.compile_pair ~seed:1 ~opts:one no_fuse tiny_mlp in
      Alcotest.(check int) "a -fuse compile hits it" 2 (Executor.domains fast))

(* A schedule's domain count is a run-time choice: the compiled IR is
   the same whatever count it names. *)
let test_schedule_domains_keep_ir () =
  let dump config = Pipeline.dump (Pipeline.compile ~seed:1 config (tiny_mlp ())) in
  let single = Schedule.with_domains 1 Schedule.empty in
  Alcotest.(check string) "domains=1 schedule compiles the unscheduled IR"
    (dump Config.default)
    (dump (Config.with_flags ~schedule:single Config.default))

let test_report_schedule_source () =
  let source config =
    let _, report = Pass_manager.run ~seed:1 config (tiny_mlp ()) in
    report.Pass_manager.schedule_source
  in
  Alcotest.(check string) "no schedule -> static" "static"
    (source Config.default);
  let explicit = Schedule.with_tile "relu1" 1 Schedule.empty in
  Alcotest.(check string) "explicit schedule" "explicit"
    (source (Config.with_flags ~schedule:explicit Config.default));
  let cached = Schedule.of_payload (Schedule.to_payload explicit) in
  Alcotest.(check string) "cache-sourced schedule" "cache"
    (source (Config.with_flags ~schedule:cached Config.default));
  let _, report =
    Pass_manager.run ~seed:1
      (Config.with_flags ~schedule:explicit Config.default)
      (tiny_mlp ())
  in
  let tile_row =
    List.find
      (fun (o : Pass_manager.outcome) -> o.Pass_manager.info.Pass.name = "tile")
      report.Pass_manager.outcomes
  in
  Alcotest.(check bool) "tile row records the source" true
    (tile_row.Pass_manager.sched_source = Some "explicit");
  Alcotest.(check bool) "tile groups reported" true
    (report.Pass_manager.tile_groups <> [])

(* ---- bit-identity over the stock models --------------------------- *)

let stock_models : (string * (unit -> Net.t)) list =
  let scale = { Models.image = 32; width_div = 8; fc_div = 32 } in
  [
    ( "mlp",
      fun () ->
        (Models.mlp ~batch:2 ~n_inputs:64 ~hidden:[ 16 ] ~n_classes:4).Models.net );
    ( "lenet",
      fun () -> (Models.lenet ~batch:2 ~image:16 ~n_classes:4 ()).Models.net );
    ( "vgg-block",
      fun () ->
        (Models.vgg_first_block ~batch:2 ~scale:{ scale with Models.image = 16 })
          .Models.net );
    ("alexnet", fun () -> (Models.alexnet ~batch:1 ~scale ()).Models.net);
    ("vgg", fun () -> (Models.vgg ~batch:1 ~scale).Models.net);
    ("overfeat", fun () -> (Models.overfeat ~batch:1 ~scale).Models.net);
  ]

let fill_inputs net exec =
  let rng = Rng.create 77 in
  List.iter
    (fun (e : Ensemble.t) ->
      match e.Ensemble.kind with
      | Ensemble.Data -> (
          match Executor.lookup_opt exec (e.Ensemble.name ^ ".value") with
          | Some t -> Tensor.fill_uniform rng t ~lo:0.0 ~hi:1.0
          | None -> ())
      | _ -> ())
    (Net.ensembles net);
  match Executor.lookup_opt exec "label" with
  | Some labels -> Tensor.fill labels 0.0
  | None -> ()

let snapshot exec =
  let pool = (Executor.program exec).Program.buffers in
  Buffer_pool.names pool
  |> List.filter (fun n -> String.equal (Buffer_pool.physical pool n) n)
  |> List.map (fun n -> (n, Tensor.to_array (Buffer_pool.read_f32 pool n)))

(* Tune every stock model (synthetic measure, so only one real forward
   per candidate), then re-verify the winner from scratch: a fresh
   default compile and a fresh winner-schedule compile must produce
   bit-identical full buffer states on identical inputs. *)
let test_stock_bit_identity () =
  List.iter
    (fun (name, build) ->
      let r =
        Tuner.tune ~budget:Tuner.Small ~seed:1 ~max_domains:1 ~use_cache:false
          ~measure:synth_measure ~config:Config.default ~build ()
      in
      let run config =
        let prog = Pipeline.compile ~seed:1 config (build ()) in
        let exec = Executor.prepare prog in
        fill_inputs (build ()) exec;
        Executor.forward exec;
        snapshot exec
      in
      let default_state = run Config.default in
      let tuned_state =
        run
          (if Schedule.is_empty r.Tuner.winner then Config.default
           else Config.with_flags ~schedule:r.Tuner.winner Config.default)
      in
      List.iter2
        (fun (bn, xs) (bn', ys) ->
          if bn <> bn' || Array.length xs <> Array.length ys then
            Alcotest.failf "%s: buffer mismatch %s vs %s" name bn bn';
          Array.iteri
            (fun i x ->
              if Int32.bits_of_float x <> Int32.bits_of_float ys.(i) then
                Alcotest.failf "%s: %s[%d] differs bitwise: %h vs %h" name bn i
                  x ys.(i))
            xs)
        default_state tuned_state)
    stock_models

let suite =
  [
    Alcotest.test_case "env: LATTE_DOMAINS parsing" `Quick test_env_domains;
    Alcotest.test_case "env: LATTE_PRECISION parsing" `Quick test_env_precision;
    Alcotest.test_case "env: LATTE_TUNE_CACHE parsing" `Quick test_env_tune_cache;
    Alcotest.test_case "env: Config.of_env" `Quick test_config_of_env;
    Alcotest.test_case "schedule: canonical form" `Quick test_schedule_canonical;
    Alcotest.test_case "schedule: payload round-trip" `Quick
      test_schedule_payload_roundtrip;
    Alcotest.test_case "schedule: sanitize" `Quick test_schedule_sanitize;
    Alcotest.test_case "cache: round-trip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache: rejects damage" `Quick test_cache_rejects_damage;
    Alcotest.test_case "cache: validates payload names" `Quick
      test_cache_validates_names;
    Alcotest.test_case "fingerprint invariance" `Quick
      test_fingerprint_invariance;
    Alcotest.test_case "tune: deterministic winner" `Quick
      test_tune_deterministic;
    Alcotest.test_case "tune: repeat is a cache hit" `Quick test_tune_cache_hit;
    Alcotest.test_case "compile_pair: cached-schedule pickup" `Quick
      test_compile_pair_pickup;
    Alcotest.test_case "compile_pair: cached-domains pickup" `Quick
      test_compile_pair_domains_pickup;
    Alcotest.test_case "compile_pair: pass set keys the cache" `Quick
      test_cache_key_passes;
    Alcotest.test_case "schedule: domains leave the IR alone" `Quick
      test_schedule_domains_keep_ir;
    Alcotest.test_case "report: schedule source" `Quick
      test_report_schedule_source;
    Alcotest.test_case "stock models: tuned = default bitwise" `Slow
      test_stock_bit_identity;
  ]
