(* `latte tune`: cost-model-pruned, measurement-ranked search over the
   schedule space (per-group tile targets from the divisor lattice,
   fusion groups toggled off, worker-domain counts), persisting the
   winner in the Tune_cache.

   The search is deliberately structured like the paper's §6.1 chunk
   auto-tuner scaled down: enumerate candidates from the structure the
   default compilation exposes (Pass_manager.report.tile_groups is the
   exact lattice), prune with the analytical cost model, and let real
   median-of-k forward runs rank the surviving frontier. Every measured
   candidate is asserted bit-identical to the default schedule before it
   may win — a schedule can only ever change *when* work happens, never
   what is computed. *)

type budget = Small | Medium | Large

let budget_of_string = function
  | "small" -> Some Small
  | "medium" -> Some Medium
  | "large" -> Some Large
  | _ -> None

let budget_name = function Small -> "small" | Medium -> "medium" | Large -> "large"

(* frontier: measured candidates; targets: tile targets tried per group;
   iters: median-of-k forward runs per measurement. *)
let limits = function
  | Small -> (6, 3, 3)
  | Medium -> (12, 5, 3)
  | Large -> (24, 8, 5)

type trial = {
  t_schedule : Schedule.t;
  t_note : string;  (* "tile" | "nofuse" | "combined" | "domains" *)
  t_estimate : float;  (* Cost-model forward seconds. *)
  t_measured : float option;  (* Median measured seconds; None = pruned. *)
}

type result = {
  winner : Schedule.t;
  default_seconds : float;
  tuned_seconds : float;
  trials : trial list;
  from_cache : bool;
  cache_key : string option;
  groups : (string * int * int) list;
      (* (label, anchor extent, default tile rows), deduplicated. *)
}

(* Deterministic input fill (the Bench_common.fill_random discipline,
   seeded from the tuner's seed): every Data ensemble's value buffer
   plus the label buffer. Identical fills across candidate compilations
   are what make the bit-identity assertion meaningful. *)
let fill ~seed net exec =
  let rng = Rng.create (4242 + seed) in
  List.iter
    (fun (e : Ensemble.t) ->
      match e.Ensemble.kind with
      | Ensemble.Data ->
          Tensor.fill_uniform rng
            (Executor.lookup exec (e.Ensemble.name ^ ".value"))
            ~lo:0.0 ~hi:1.0
      | _ -> ())
    (Net.ensembles net);
  match Executor.lookup_opt exec "label" with
  | Some labels -> Tensor.fill labels 0.0
  | None -> ()

(* Full-state snapshot: the decoded contents of every physical buffer.
   Buffer planning happens in synthesize, before any schedule consult,
   so two compilations of one net under one config have the same
   physical names whatever their schedules. *)
let snapshot exec =
  let pool = (Executor.program exec).Program.buffers in
  Buffer_pool.names pool
  |> List.filter (fun n -> String.equal (Buffer_pool.physical pool n) n)
  |> List.map (fun n -> (n, Tensor.to_array (Buffer_pool.read_f32 pool n)))

let bits_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (na, xs) (nb, ys) ->
         String.equal na nb
         && Array.length xs = Array.length ys
         && (let ok = ref true in
             Array.iteri
               (fun i x ->
                 if Int32.bits_of_float x <> Int32.bits_of_float ys.(i) then
                   ok := false)
               xs;
             !ok))
       a b

(* Evenly spread [k] picks over a list, always keeping the extremes. *)
let spread k xs =
  let n = List.length xs in
  if n <= k then xs
  else
    List.filteri
      (fun i _ ->
        List.exists (fun j -> i = j * (n - 1) / (max 1 (k - 1))) (List.init k Fun.id))
      xs

let divisors n = List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1))

let cache_key config prog =
  Tune_cache.key
    ~fingerprint:(Program.fingerprint prog)
    ~machine:(Tune_cache.machine_id ())
    ~precision:(Precision.preset_to_string config.Config.precision)
    ~passes:
      (String.concat ","
         (List.sort_uniq String.compare
            (fst (Config.normalize config)).Config.passes))

let tune ?(budget = Medium) ?(seed = 1) ?max_domains ?(use_cache = true)
    ?cache_dir ?(force = false) ?(machine = Machine.xeon_e5_2699v3_1core)
    ?measure ?(log = fun _ -> ()) ~config ~build () =
  let frontier_cap, target_cap, iters = limits budget in
  let max_domains =
    match max_domains with
    | Some n -> max 1 n
    | None -> Domain.recommended_domain_count ()
  in
  (* Tune from the static baseline: whatever schedule the caller's
     config carried is the thing being replaced. *)
  let config = { config with Config.schedule = None } in
  let compile_sched sched =
    let cfg =
      if Schedule.is_empty sched then config
      else { config with Config.schedule = Some sched }
    in
    Pass_manager.run ~seed cfg (build ())
  in
  let estimate prog =
    (Cost_model.estimate_sections machine
       ~buf_bytes:(Cost_model.buf_bytes_of prog)
       ~width_of:(Program.width_of prog) prog.Program.forward)
      .Cost_model.total_seconds
  in
  let prepare ?(domains = 1) prog =
    Executor.prepare
      ~opts:(Executor.Run_opts.with_domains domains Executor.Run_opts.default)
      prog
  in
  let net0 = build () in
  let measure_exec =
    match measure with
    | Some f -> f
    | None ->
        fun exec ->
          Executor.time_run ~warmup:1 ~iters (fun () -> Executor.forward exec)
  in
  let eval ?domains prog =
    let exec = prepare ?domains prog in
    fill ~seed net0 exec;
    Executor.forward exec;
    (snapshot exec, measure_exec exec)
  in
  (* ---- default schedule: search space + reference bits + baseline ---- *)
  let default_prog, default_report = compile_sched Schedule.empty in
  let groups =
    List.fold_left
      (fun acc (label, extent, rows) ->
        if List.exists (fun (l, _, _) -> String.equal l label) acc then acc
        else (label, extent, rows) :: acc)
      []
      default_report.Pass_manager.tile_groups
    |> List.rev
  in
  let cache_dir =
    if not use_cache then None
    else match cache_dir with Some d -> Some d | None -> Tune_cache.dir ()
  in
  let key = Option.map (fun _ -> cache_key config default_prog) cache_dir in
  let cached =
    match (cache_dir, key) with
    | Some dir, Some key when not force -> Tune_cache.lookup ~dir ~key
    | _ -> None
  in
  match cached with
  | Some payload ->
      let ms name =
        match Option.bind (List.assoc_opt name payload) float_of_string_opt with
        | Some v -> v /. 1000.0
        | None -> 0.0
      in
      log
        (Printf.sprintf "cache hit (%s): %s"
           (Option.value ~default:"" key)
           (Schedule.describe (Schedule.of_payload payload)));
      {
        winner = Schedule.of_payload payload;
        default_seconds = ms "default_ms";
        tuned_seconds = ms "tuned_ms";
        trials = [];
        from_cache = true;
        cache_key = key;
        groups;
      }
  | None ->
      let default_bits, default_seconds = eval default_prog in
      log
        (Printf.sprintf
           "default schedule: %.3f ms/forward (%d tile groups, budget %s)"
           (default_seconds *. 1000.0) (List.length groups) (budget_name budget));
      (* ---- candidate enumeration ---- *)
      let tile_candidates =
        List.concat_map
          (fun (label, extent, default_rows) ->
            divisors extent
            |> List.filter (fun d -> d <> default_rows)
            |> spread target_cap
            |> List.map (fun target ->
                   ("tile", Schedule.with_tile label target Schedule.empty)))
          groups
      in
      let fuse_candidates =
        if not (Config.enabled "fuse" config) then []
        else
          List.filter_map
            (fun (label, _, _) ->
              if String.contains label '+' then
                Some ("nofuse", Schedule.without_fusion label Schedule.empty)
              else None)
            groups
      in
      let candidates = tile_candidates @ fuse_candidates in
      (* ---- cost-model pruning ---- *)
      let estimated =
        List.map
          (fun (note, sched) ->
            let prog, _ = compile_sched sched in
            (note, sched, prog, estimate prog))
          candidates
      in
      let frontier =
        List.stable_sort (fun (_, _, _, a) (_, _, _, b) -> compare a b) estimated
        |> spread frontier_cap
      in
      log
        (Printf.sprintf "search space: %d candidates, measuring %d after pruning"
           (List.length candidates) (List.length frontier));
      (* ---- measurement ---- *)
      let measure_one (note, sched, prog, est) =
        let bits, secs = eval prog in
        if not (bits_equal default_bits bits) then begin
          log
            (Printf.sprintf "  %-40s REJECTED: outputs differ from default"
               (Schedule.describe sched));
          { t_schedule = sched; t_note = note; t_estimate = est; t_measured = None }
        end
        else begin
          log
            (Printf.sprintf "  %-40s %.3f ms (est %.3f ms)"
               (Schedule.describe sched) (secs *. 1000.0) (est *. 1000.0));
          {
            t_schedule = sched;
            t_note = note;
            t_estimate = est;
            t_measured = Some secs;
          }
        end
      in
      let measured = List.map measure_one frontier in
      let pruned =
        List.filter_map
          (fun (note, sched, _, est) ->
            if
              List.exists
                (fun t -> Schedule.equal t.t_schedule sched)
                measured
            then None
            else
              Some
                {
                  t_schedule = sched;
                  t_note = note;
                  t_estimate = est;
                  t_measured = None;
                })
          estimated
      in
      (* ---- combined greedy: best measured-improving choice per group ---- *)
      let improving =
        List.filter
          (fun t ->
            match t.t_measured with
            | Some s -> s < default_seconds
            | None -> false)
          measured
      in
      let combined =
        List.fold_left
          (fun acc t ->
            match (t.t_note, t.t_schedule.Schedule.tiles, t.t_schedule.Schedule.fuse_off) with
            | "tile", [ (label, rows) ], _
              when Schedule.tile_for acc label = None
                   && not (List.mem label acc.Schedule.fuse_off) ->
                (* Singles are sorted best-first below, so the first
                   tile entry per label is the best one. *)
                Schedule.with_tile label rows acc
            | "nofuse", _, [ label ] when Schedule.tile_for acc label = None ->
                (* A tile target for the fused group and unfusing that
                   same group are mutually exclusive; best-first order
                   means whichever measured faster claims the label. *)
                Schedule.without_fusion label acc
            | _ -> acc)
          Schedule.empty
          (List.stable_sort
             (fun a b -> compare a.t_measured b.t_measured)
             improving)
      in
      let combined_trial =
        if
          Schedule.is_empty combined
          || List.exists (fun t -> Schedule.equal t.t_schedule combined) measured
        then []
        else begin
          let prog, _ = compile_sched combined in
          [ measure_one ("combined", combined, prog, estimate prog) ]
        end
      in
      let all_measured = measured @ combined_trial in
      (* ---- pick the single-domain winner (must beat default by >1%) ---- *)
      let best =
        List.fold_left
          (fun best t ->
            match (t.t_measured, best) with
            | Some s, Some (_, bs) when s < bs -> Some (t.t_schedule, s)
            | Some s, None -> Some (t.t_schedule, s)
            | _ -> best)
          None all_measured
      in
      let winner, tuned_seconds =
        match best with
        | Some (sched, s) when s < default_seconds *. 0.99 -> (sched, s)
        | _ -> (Schedule.empty, default_seconds)
      in
      (* ---- domain-count stage ---- *)
      let domain_candidates =
        let rec powers d = if d > max_domains then [] else d :: powers (2 * d) in
        powers 2 @ (if max_domains > 1 && not (List.mem max_domains (powers 2)) then [ max_domains ] else [])
      in
      let winner_prog =
        if Schedule.is_empty winner then default_prog
        else fst (compile_sched winner)
      in
      let domain_trials =
        List.map
          (fun d ->
            let sched = Schedule.with_domains d winner in
            let bits, secs = eval ~domains:d winner_prog in
            log
              (Printf.sprintf "  %-40s %.3f ms" (Schedule.describe sched)
                 (secs *. 1000.0));
            let ok = bits_equal default_bits bits in
            if not ok then
              log
                (Printf.sprintf "  %-40s REJECTED: outputs differ from default"
                   (Schedule.describe sched));
            {
              t_schedule = sched;
              t_note = "domains";
              t_estimate = 0.0;
              t_measured = (if ok then Some secs else None);
            })
          domain_candidates
      in
      let winner, tuned_seconds =
        List.fold_left
          (fun (w, ws) t ->
            match t.t_measured with
            | Some s when s < ws *. 0.99 -> (t.t_schedule, s)
            | _ -> (w, ws))
          (winner, tuned_seconds) domain_trials
      in
      log
        (Printf.sprintf "winner: %s (%.3f ms vs %.3f ms default)"
           (Schedule.describe winner) (tuned_seconds *. 1000.0)
           (default_seconds *. 1000.0));
      (* ---- persist ---- *)
      (match (cache_dir, key) with
      | Some dir, Some key ->
          let payload =
            Schedule.to_payload winner
            @ [
                ("default_ms", Printf.sprintf "%.6f" (default_seconds *. 1000.0));
                ("tuned_ms", Printf.sprintf "%.6f" (tuned_seconds *. 1000.0));
              ]
          in
          Tune_cache.store ~dir ~key payload;
          log (Printf.sprintf "stored tuning-cache entry %s" key)
      | _ -> ());
      {
        winner;
        default_seconds;
        tuned_seconds;
        trials = all_measured @ domain_trials @ pruned;
        from_cache = false;
        cache_key = key;
        groups;
      }
