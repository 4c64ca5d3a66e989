type t = {
  passes : string list;
  tile_size : int;
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
    passes =
      [ "layout"; "gemm"; "batch-gemm"; "fuse"; "tile"; "simplify"; "parallelize" ];
    tile_size = 4;
    num_domains = env.env_domains;
    precision = env.env_precision;
    schedule = None;
  }

let unoptimized =
  {
    passes = [ "simplify" ];
    tile_size = 4;
    num_domains = 1;
    precision = `F32;
    schedule = None;
  }

let with_flags ?passes ?tile_size ?num_domains ?precision ?schedule t =
  {
    passes = Option.value ~default:t.passes passes;
    tile_size = Option.value ~default:t.tile_size tile_size;
    num_domains = Option.value ~default:t.num_domains num_domains;
    precision = Option.value ~default:t.precision precision;
    schedule = (match schedule with Some s -> Some s | None -> t.schedule);
  }

let enabled name t = List.mem name t.passes

let without names t =
  { t with passes = List.filter (fun p -> not (List.mem p names)) t.passes }

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
        if s.Schedule.tiles <> [] && not (enabled "tile" t) then
          warn
            "config: schedule tile targets are ignored while tiling is \
             disabled (pass `tile')";
        { t with schedule = Some s }
  in
  let t =
    if enabled "fuse" t && not (enabled "tile" t) then begin
      warn
        "config: cross-layer fusion requires tiling (fused tiles are what \
         fusion schedules); disabling fusion (pass `fuse')";
      without [ "fuse" ] t
    end
    else t
  in
  let t =
    if enabled "batch-gemm" t && not (enabled "gemm" t) then begin
      warn
        "config: batch-GEMM hoisting requires GEMM pattern matching (there \
         are no GEMV calls to stack); disabling batch-gemm (pass `batch-gemm')";
      without [ "batch-gemm" ] t
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
  let base = if t.passes = [] then "none" else String.concat "+" t.passes in
  (* Precision enters the description (and thus every compile-cache key
     built from it) only when it departs from f32. *)
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
