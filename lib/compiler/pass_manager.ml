(* The instrumented pass manager: the ordered registry of compiler
   passes, the --passes grammar over Config.passes, and the driver that
   runs the pipeline with per-pass timing, IR statistics, optional
   well-formedness verification and IR dumps. *)

open Pass

(* ------------------------------------------------------------------ *)
(* Pass implementations                                                *)
(* ------------------------------------------------------------------ *)

let synthesize st =
  let plan = Synthesis.run ?seed:st.seed st.config st.net in
  let pieces units =
    List.map (fun u -> Group { units = [ u ]; tile = None }) units
  in
  {
    st with
    plan = Some plan;
    fwd = pieces plan.Synthesis.fwd_units;
    bwd = pieces plan.Synthesis.bwd_units;
  }

let gemm_match st =
  let plan = Option.get st.plan in
  let shape_of name = Tensor.shape (Buffer_pool.lookup plan.Synthesis.buffers name) in
  Pass.map_units
    (fun (u : Synthesis.unit_code) ->
      let y_info =
        Option.map
          (fun (s : Synthesis.spatial) -> (s.Synthesis.y_var, s.Synthesis.y_extent))
          u.spatial
      in
      { u with body = Pattern_match.rewrite ~shape_of ~y_info u.body })
    st

let batch_gemm st =
  Pass.map_pieces
    (fun p ->
      match p with
      | Group { units = [ u ]; tile = None } -> (
          match
            Pattern_match.hoist_batch ~batch_var:Synthesis.batch_var
              ~batch:st.batch u.Synthesis.body
          with
          | Some segments -> Hoisted { unit_ = u; segments }
          | None -> p)
      | p -> p)
    st

let group_label units =
  String.concat "+" (List.map (fun (u : Synthesis.unit_code) -> u.Synthesis.ens) units)

let fuse st =
  let sched = st.config.Config.schedule in
  (* Schedule consult: groups the schedule names in [fuse_off] are split
     back into singleton units — the tuner's "is this fusion actually
     paying?" toggle. The heuristic grouping runs first so labels are
     the same strings either way. *)
  let split_off groups =
    match sched with
    | None -> groups
    | Some s ->
        List.concat_map
          (fun us ->
            if Schedule.fused s (group_label us) then [ us ]
            else List.map (fun u -> [ u ]) us)
          groups
  in
  let fuse_dir dir pieces =
    (* Merge adjacent Group pieces; hoisted units break runs exactly as
       batch-GEMM sections did in the monolithic driver. *)
    let flush run acc =
      match run with
      | [] -> acc
      | _ ->
          let units = List.concat (List.rev run) in
          List.fold_left
            (fun acc us -> Group { units = us; tile = None } :: acc)
            acc
            (split_off (Fusion.make_groups dir units))
    in
    let rec go run acc = function
      | [] -> List.rev (flush run acc)
      | Group { units; _ } :: rest -> go (units :: run) acc rest
      | (Hoisted _ as h) :: rest -> go [] (h :: flush run acc) rest
    in
    go [] [] pieces
  in
  { st with fwd = fuse_dir Fusion.Fwd st.fwd; bwd = fuse_dir Fusion.Bwd st.bwd }

let tile st =
  let sched = st.config.Config.schedule in
  let groups = ref [] in
  let matched = Hashtbl.create 8 in
  let tile_dir dir =
    List.map (fun p ->
        match p with
        | Group g ->
            let label = group_label g.units in
            (* Schedule consult: a per-group tile target wins over the
               global Config.tile_size fallback. Either way the chosen
               rows come from the divisor lattice of the anchor extent
               (Tiling.choose_tile_rows), so any target is safe. *)
            let target =
              match Option.bind sched (fun s -> Schedule.tile_for s label) with
              | Some n ->
                  Hashtbl.replace matched label ();
                  n
              | None -> st.config.Config.tile_size
            in
            let tile = Fusion.plan_tile ~tile_size:target dir g.units in
            (match (tile, Fusion.anchor_extent dir g.units) with
            | Some t, Some extent ->
                groups := (label, extent, t.Fusion.tile_rows) :: !groups
            | _ -> ());
            Group { g with tile }
        | p -> p)
  in
  let fwd = tile_dir Fusion.Fwd st.fwd in
  let bwd = tile_dir Fusion.Bwd st.bwd in
  (match sched with
  | Some s ->
      List.iter
        (fun l ->
          if not (Hashtbl.mem matched l) then
            Printf.eprintf
              "latte: warning: schedule names tile group `%s' but this \
               compilation has no such group; entry ignored\n%!"
              l)
        (Schedule.tile_labels s)
  | None -> ());
  { st with fwd; bwd; tile_groups = List.rev !groups }

let assemble st =
  let plan = Option.get st.plan in
  let mk_for var lo hi body =
    Ir.For { var; lo; hi; body; parallel = false; tile = None; vectorize = false }
  in
  let sections_of_piece p =
    match p with
    | Group { units; tile } -> [ Fusion.group_section ~batch:st.batch ?tile units ]
    | Hoisted { unit_ = u; segments } ->
        let first = ref true in
        List.map
          (fun seg ->
            let stmts =
              match seg with
              | Pattern_match.Global stmts -> stmts
              | Pattern_match.Per_item stmts ->
                  [
                    mk_for Synthesis.batch_var (Ir.Iconst 0)
                      (Ir.Iconst st.batch) stmts;
                  ]
            in
            let stmts = if !first then u.Synthesis.pre @ stmts else stmts in
            let label =
              match seg with
              | Pattern_match.Global _ -> u.Synthesis.ens ^ ":batch-gemm"
              | Pattern_match.Per_item _ -> u.Synthesis.ens
            in
            first := false;
            Program.section ~label ~ensembles:[ u.Synthesis.ens ] stmts)
          segments
  in
  let zero =
    Program.section ~label:"zero-gradients" ~ensembles:[]
      plan.Synthesis.zero_grads
  in
  {
    st with
    fwd_sections = Some (List.concat_map sections_of_piece st.fwd);
    bwd_sections = Some (zero :: List.concat_map sections_of_piece st.bwd);
  }

let simplify st =
  let shape_of buf =
    Option.map (fun (s : Shape.t) -> (s :> int array)) (Pass.shape_of st buf)
  in
  let tidy stmts =
    Ir_order.sink_unit_stride ~batch_var:Synthesis.batch_var ~shape_of
      (Ir.simplify_stmts stmts)
  in
  Pass.map_sections
    (fun (s : Program.section) -> { s with Program.stmts = tidy s.Program.stmts })
    st

let parallelize st =
  (* Batch and tile loops are the loops the compiler constructed with
     per-iteration-disjoint work (§5.4.3); annotate them for the
     parallel scheduler / cost model. The verifier checks the
     annotation is dependence-free. *)
  let annotate stmts =
    Ir.map_stmts
      (fun s ->
        match s with
        | Ir.For l when String.equal l.var Synthesis.batch_var || l.tile <> None
          ->
            Ir.For { l with parallel = true }
        | s -> s)
      stmts
  in
  let st =
    Pass.map_sections
      (fun (s : Program.section) -> { s with Program.stmts = annotate s.Program.stmts })
      st
  in
  (* Second, dependence-driven sweep: annotate loops the syntactic rule
     skips when Ir_deps proves every buffer's footprint Independent
     across iterations. The runtime partitions only the outermost
     parallel loop of a section; inner annotations record legal
     parallelism for the cost model and the scheduler. *)
  let shape_of buf =
    Option.map (fun (s : Shape.t) -> (s :> int array)) (Pass.shape_of st buf)
  in
  let const_trip l =
    match
      ( Ir_analysis.const_value l.Ir.lo,
        Ir_analysis.const_value l.Ir.hi )
    with
    | Some lo, Some hi -> Some (hi - lo)
    | _ -> None
  in
  let deps_annotate stmts =
    let rec go env s =
      match s with
      | Ir.For l ->
          let body = List.map (go (Ir_bounds.bind_range l.var ~lo:l.lo ~hi:l.hi env)) l.body in
          let l = { l with Ir.body } in
          let provably_independent () =
            List.for_all
              (fun (bv : Ir_deps.buffer_verdict) ->
                bv.bv_verdict = Ir_deps.Independent)
              (Ir_deps.analyze_loop ~env ~shape_of l)
          in
          if
            (not l.Ir.parallel)
            && (match const_trip l with Some t -> t > 1 | None -> true)
            && provably_independent ()
          then Ir.For { l with Ir.parallel = true }
          else Ir.For l
      | Ir.If (c, t, e) ->
          Ir.If
            ( c,
              List.map (go (Ir_bounds.assume c env)) t,
              List.map (go (Ir_bounds.assume_not c env)) e )
      | Ir.Store _ | Ir.Accum _ | Ir.Memset _ | Ir.Gemm _
      | Ir.Fusion_barrier _ | Ir.Extern _ ->
          s
    in
    List.map (go Ir_bounds.empty_env) stmts
  in
  let st =
    Pass.map_sections
      (fun (s : Program.section) ->
        { s with Program.stmts = deps_annotate s.Program.stmts })
      st
  in
  (* Record what was scheduled so dump-ir/analyze can report it. *)
  let parallel_vars stmts =
    let vars = ref [] in
    let rec go s =
      match s with
      | Ir.For l ->
          if l.parallel then vars := l.var :: !vars;
          List.iter go l.body
      | Ir.If (_, t, e) ->
          List.iter go t;
          List.iter go e
      | Ir.Store _ | Ir.Accum _ | Ir.Memset _ | Ir.Gemm _ | Ir.Fusion_barrier _
      | Ir.Extern _ ->
          ()
    in
    List.iter go stmts;
    List.rev !vars
  in
  let par_annotated =
    List.filter_map
      (fun (region, _, stmts) ->
        match parallel_vars stmts with
        | [] -> None
        | vars -> Some (region, vars))
      (Pass.regions st)
  in
  { st with Pass.par_annotated }

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry : Pass.info list =
  [
    {
      name = "layout";
      paper = "§3.2/§5.2";
      description =
        "shared-variable in-place layout: single-consumer activation values \
         alias their source buffer (realized during buffer planning in \
         synthesize)";
      required = false;
      run = Fun.id;
    };
    {
      name = "synthesize";
      paper = "§5.2–§5.3";
      description =
        "loop-nest synthesis: AoS→SoA kernel rewriting, shared-variable \
         analysis, data-copy tasks, buffer planning";
      required = true;
      run = synthesize;
    };
    {
      name = "gemm";
      paper = "§5.4.1";
      description = "rewrite dot-product loop nests into GEMM library calls";
      required = false;
      run = gemm_match;
    };
    {
      name = "batch-gemm";
      paper = "§5.4.1";
      description =
        "hoist per-item GEMV/rank-1 calls into whole-batch GEMM sections";
      required = false;
      run = batch_gemm;
    };
    {
      name = "fuse";
      paper = "§5.4.2";
      description =
        "group adjacent units whose connection windows tile exactly, so they \
         share one tile loop";
      required = false;
      run = fuse;
    };
    {
      name = "tile";
      paper = "§5.4.1";
      description =
        "plan row-band tiling of each group's anchor y dimension, scaling \
         producer tiles by dependence distances";
      required = false;
      run = tile;
    };
    {
      name = "assemble";
      paper = "§5.3";
      description =
        "emit executable sections: batch loops, tile loops with restricted \
         unit bodies, hoisted batch-GEMM segments, zero-gradient prologue";
      required = true;
      run = assemble;
    };
    {
      name = "simplify";
      paper = "—";
      description =
        "post-assembly cleanup: constant folding, dead/empty loop removal, \
         unit-stride loop innermost in each perfect loop band";
      required = false;
      run = simplify;
    };
    {
      name = "parallelize";
      paper = "§5.4.3";
      description = "annotate batch and tile loops for batch×tile parallelism";
      required = false;
      run = parallelize;
    };
  ]

let passes () = registry

let pass_names () = List.map (fun (p : Pass.info) -> p.name) registry

let optional_pass_names () =
  List.filter_map
    (fun (p : Pass.info) -> if p.required then None else Some p.name)
    registry

let validate name =
  if not (List.mem name (pass_names ())) then
    invalid_arg
      (Printf.sprintf "unknown compiler pass `%s' (known passes: %s)" name
         (String.concat ", " (pass_names ())))

(* ------------------------------------------------------------------ *)
(* The --passes grammar                                                *)
(* ------------------------------------------------------------------ *)

let parse_spec s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun e -> e <> "")

(* "all", "none", an exact list, or +name/-name edits of
   [config.passes]; the result is in registry order, so equal sets
   describe equally. *)
let edit entries config =
  let signed e = String.length e > 1 && (e.[0] = '-' || e.[0] = '+') in
  let set =
    match entries with
    | [ "all" ] -> optional_pass_names ()
    | [ "none" ] -> []
    | entries when List.for_all signed entries ->
        List.fold_left
          (fun set e ->
            let n = String.sub e 1 (String.length e - 1) in
            validate n;
            if e.[0] = '-' then List.filter (( <> ) n) set else n :: set)
          config.Config.passes entries
    | entries ->
        List.iter validate entries;
        entries
  in
  let passes = List.filter (fun n -> List.mem n set) (optional_pass_names ()) in
  { config with Config.passes }

(* ------------------------------------------------------------------ *)
(* The instrumented driver                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  info : Pass.info;
  enabled : bool;
  seconds : float;
  stats : Ir_stats.t;  (** IR census after the pass. *)
  dump : string option;  (** IR listing, when requested via [dump_after]. *)
  bounds : Ir_bounds.report option;
      (** Bounds/safety analysis after the pass, under [~verify:true]. *)
  sched_source : string option;
      (** For the schedule-consulting passes (fuse/tile) when enabled:
          which schedule source drove the decisions —
          "static" | "cache" | "explicit". *)
}

type report = {
  outcomes : outcome list;
  warnings : string list;
  verified : bool;
  total_seconds : float;
  parallel_annotated : (string * string list) list;
  schedule_source : string;
      (** "static" (no schedule), "cache" or "explicit". *)
  tile_groups : (string * int * int) list;
      (** (group label, anchor extent, tile rows) per tiled group,
          forward then backward — empty when the tile pass did not
          run. *)
}

exception Verification_failed of string * Ir_verify.error list
exception Analysis_failed of string * Ir_bounds.finding list

let () =
  Printexc.register_printer (function
    | Verification_failed (pass, errs) ->
        Some
          (Printf.sprintf "IR verification failed after pass `%s':\n%s" pass
             (String.concat "\n" (List.map Ir_verify.to_string errs)))
    | Analysis_failed (pass, findings) ->
        Some
          (Printf.sprintf "bounds analysis failed after pass `%s':\n%s" pass
             (String.concat "\n"
                (List.map Ir_bounds.finding_to_string findings)))
    | _ -> None)

let run ?seed ?(verify = false) ?(dump_after = []) config net =
  List.iter validate config.Config.passes;
  List.iter validate (List.filter (( <> ) "all") dump_after);
  let config, warnings = Config.normalize config in
  List.iter (fun w -> Printf.eprintf "latte: warning: %s\n%!" w) warnings;
  let sched_src =
    match config.Config.schedule with
    | None -> "static"
    | Some s when Schedule.is_empty s -> "static"
    | Some s -> Schedule.source_name s
  in
  let consults_schedule name = List.mem name [ "fuse"; "tile" ] in
  let want_dump name = List.mem "all" dump_after || List.mem name dump_after in
  let t_start = Unix.gettimeofday () in
  let st, outcomes_rev =
    List.fold_left
      (fun (st, acc) (p : Pass.info) ->
        let on = p.required || Config.enabled p.name config in
        let t0 = Unix.gettimeofday () in
        let st = if on then p.run st else st in
        let seconds = Unix.gettimeofday () -. t0 in
        if verify && on then begin
          match Pass.verify st with
          | [] -> ()
          | errs -> raise (Verification_failed (p.name, errs))
        end;
        let bounds = if verify && on then Pass.analyze st else None in
        (match bounds with
        | Some rep -> (
            match Ir_bounds.fatal_findings rep with
            | [] -> ()
            | fatal -> raise (Analysis_failed (p.name, fatal)))
        | None -> ());
        let dump = if on && want_dump p.name then Some (Pass.dump st) else None in
        let sched_source =
          if on && consults_schedule p.name then Some sched_src else None
        in
        ( st,
          {
            info = p;
            enabled = on;
            seconds;
            stats = Pass.stats st;
            dump;
            bounds;
            sched_source;
          }
          :: acc ))
      (Pass.initial ?seed config net, [])
      registry
  in
  let prog = Pass.finish st in
  ( prog,
    {
      outcomes = List.rev outcomes_rev;
      warnings;
      verified = verify;
      total_seconds = Unix.gettimeofday () -. t_start;
      parallel_annotated = st.Pass.par_annotated;
      schedule_source = sched_src;
      tile_groups = st.Pass.tile_groups;
    } )
