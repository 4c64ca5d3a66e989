type t = {
  pattern_match : bool;
  tiling : bool;
  fusion : bool;
  parallelize : bool;
  tile_size : int;
  batch_gemm : bool;
  inplace_activation : bool;
  bounds_checks : bool;
  num_domains : int;
  precision : Precision.preset;
  schedule : Schedule.t option;
}

(* The one env-parsing seam (the actual parsers live in Latte_env, one
   library below, so Executor.Run_opts — which cannot see this module —
   shares the same implementations). An entire run (tests included) can
   be switched to parallel execution with LATTE_DOMAINS=N, to another
   precision with LATTE_PRECISION=int8, or pointed at a different tuning
   cache with LATTE_TUNE_CACHE=DIR (or `off'), with no code changes.
   Malformed values always mean the default. *)
type env = {
  env_domains : int;
  env_precision : Precision.preset;
  env_tune_cache : Latte_env.tune_cache;
}

let of_env () =
  {
    env_domains = Latte_env.domains ();
    env_precision = Latte_env.precision ();
    env_tune_cache = Latte_env.tune_cache ();
  }

let default =
  let env = of_env () in
  {
    pattern_match = true;
    tiling = true;
    fusion = true;
    parallelize = true;
    tile_size = 4;
    batch_gemm = true;
    inplace_activation = true;
    bounds_checks = true;
    num_domains = env.env_domains;
    precision = env.env_precision;
    schedule = None;
  }

let unoptimized =
  {
    pattern_match = false;
    tiling = false;
    fusion = false;
    parallelize = false;
    tile_size = 4;
    batch_gemm = false;
    inplace_activation = false;
    bounds_checks = true;
    num_domains = 1;
    precision = `F32;
    schedule = None;
  }

let with_flags ?pattern_match ?tiling ?fusion ?parallelize ?tile_size ?batch_gemm
    ?inplace_activation ?bounds_checks ?num_domains ?precision ?schedule t =
  {
    pattern_match = Option.value ~default:t.pattern_match pattern_match;
    tiling = Option.value ~default:t.tiling tiling;
    fusion = Option.value ~default:t.fusion fusion;
    parallelize = Option.value ~default:t.parallelize parallelize;
    tile_size = Option.value ~default:t.tile_size tile_size;
    batch_gemm = Option.value ~default:t.batch_gemm batch_gemm;
    inplace_activation = Option.value ~default:t.inplace_activation inplace_activation;
    bounds_checks = Option.value ~default:t.bounds_checks bounds_checks;
    num_domains = Option.value ~default:t.num_domains num_domains;
    precision = Option.value ~default:t.precision precision;
    schedule = (match schedule with Some s -> Some s | None -> t.schedule);
  }

let normalize t =
  let warnings = ref [] in
  let warn w = warnings := w :: !warnings in
  (* The schedule's tile entries are sanity-checked, and tile targets
     under disabled tiling get a warning mirroring the
     fusion-without-tiling repair. *)
  let t =
    match t.schedule with
    | None -> t
    | Some s ->
        let s, sched_warns = Schedule.sanitize s in
        List.iter warn sched_warns;
        if s.Schedule.tiles <> [] && not t.tiling then
          warn
            "config: schedule tile targets are ignored while tiling is \
             disabled (pass `tile')";
        { t with schedule = Some s }
  in
  let t =
    if t.fusion && not t.tiling then begin
      warn
        "config: cross-layer fusion requires tiling (fused tiles are what \
         fusion schedules); disabling fusion (pass `fuse')";
      { t with fusion = false }
    end
    else t
  in
  let t =
    if t.batch_gemm && not t.pattern_match then begin
      warn
        "config: batch-GEMM hoisting requires GEMM pattern matching (there \
         are no GEMV calls to stack); disabling batch-gemm (pass `batch-gemm')";
      { t with batch_gemm = false }
    end
    else t
  in
  let t =
    if t.num_domains < 1 then begin
      warn
        (Printf.sprintf
           "config: num_domains %d < 1 makes no worker available; clamping to 1"
           t.num_domains);
      { t with num_domains = 1 }
    end
    else t
  in
  (t, List.rev !warnings)

let describe t =
  let flag name b = if b then [ name ] else [] in
  let parts =
    flag "gemm" t.pattern_match @ flag "tiling" t.tiling @ flag "fusion" t.fusion
    @ flag "parallel" t.parallelize
    @ flag "batch-gemm" t.batch_gemm
    @ flag "inplace" t.inplace_activation
  in
  let base = if parts = [] then "none" else String.concat "+" parts in
  (* Precision enters the description (and thus every compile-cache key
     built from it) only when it departs from f32, keeping the f32
     spelling byte-identical to what tools and tests already pin. *)
  let base =
    match t.precision with
    | `F32 -> base
    | p -> base ^ "+" ^ Precision.preset_to_string p
  in
  (* Likewise the schedule: absent (the common case) changes nothing;
     present, its canonical digest distinguishes every distinct
     schedule in compile-cache keys and report rows. *)
  match t.schedule with
  | None -> base
  | Some s when Schedule.is_empty s -> base
  | Some s -> base ^ "+sched@" ^ Schedule.digest s
