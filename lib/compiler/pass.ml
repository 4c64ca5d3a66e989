(* The typed state threaded through the compiler's pass pipeline, plus
   the pass descriptor. Pass implementations and the registry live in
   Pass_manager; this module owns the data they transform. *)

type piece =
  | Group of { units : Synthesis.unit_code list; tile : Fusion.tile_plan option }
  | Hoisted of { unit_ : Synthesis.unit_code; segments : Pattern_match.segment list }

type state = {
  config : Config.t;  (* Normalized; its [passes] are the ones that run. *)
  net : Net.t;
  batch : int;
  seed : int option;
  plan : Synthesis.plan option;  (* Set by the synthesize pass. *)
  fwd : piece list;
  bwd : piece list;
  fwd_sections : Program.section list option;  (* Set by assemble. *)
  bwd_sections : Program.section list option;  (* Includes zero-gradients. *)
  par_annotated : (string * string list) list;
      (* Set by the parallelize pass: region name -> loop variables it
         annotated for parallel execution, in program order. *)
  tile_groups : (string * int * int) list;
      (* Set by the tile pass: (group label, anchor extent, tile rows)
         for every group it planned a tile for, forward then backward —
         the divisor lattice the tuner searches and the winner-vs-default
         rows the CLI prints. *)
}

type info = {
  name : string;
  description : string;
  paper : string;  (* Paper section implemented, e.g. "§5.4.1". *)
  required : bool;  (* Structural pass; cannot be disabled. *)
  run : state -> state;
}

let initial ?seed config net =
  {
    config;
    net;
    batch = Net.batch_size net;
    seed;
    plan = None;
    fwd = [];
    bwd = [];
    fwd_sections = None;
    bwd_sections = None;
    par_annotated = [];
    tile_groups = [];
  }

let map_units f st =
  let piece = function
    | Group g -> Group { g with units = List.map f g.units }
    | Hoisted _ as h -> h
  in
  { st with fwd = List.map piece st.fwd; bwd = List.map piece st.bwd }

let map_pieces f st = { st with fwd = List.map f st.fwd; bwd = List.map f st.bwd }

let map_sections f st =
  let dir = Option.map (List.map f) in
  { st with fwd_sections = dir st.fwd_sections; bwd_sections = dir st.bwd_sections }

(* Named IR regions of the current state, with the loop variables that
   are implicitly bound in each (the batch variable for per-item unit
   bodies). The verifier and the [--dump-ir-after] dumps both walk
   these. *)
let regions st =
  match (st.fwd_sections, st.bwd_sections) with
  | Some fwd, Some bwd ->
      List.map
        (fun (s : Program.section) -> ("forward/" ^ s.Program.label, [], s.Program.stmts))
        fwd
      @ List.map
          (fun (s : Program.section) ->
            ("backward/" ^ s.Program.label, [], s.Program.stmts))
          bwd
  | _ ->
      let unit_regions dir (u : Synthesis.unit_code) =
        let body_bound = if u.global then [] else [ Synthesis.batch_var ] in
        (match u.pre with
        | [] -> []
        | pre -> [ (Printf.sprintf "%s/%s (pre)" dir u.ens, [], pre) ])
        @ [ (Printf.sprintf "%s/%s" dir u.ens, body_bound, u.body) ]
      in
      let piece_regions dir p =
        match p with
        | Group { units; _ } -> List.concat_map (unit_regions dir) units
        | Hoisted { unit_ = u; segments } ->
            (match u.pre with
            | [] -> []
            | pre -> [ (Printf.sprintf "%s/%s (pre)" dir u.ens, [], pre) ])
            @ List.mapi
                (fun i seg ->
                  match seg with
                  | Pattern_match.Global stmts ->
                      (Printf.sprintf "%s/%s (batch-gemm %d)" dir u.ens i, [], stmts)
                  | Pattern_match.Per_item stmts ->
                      ( Printf.sprintf "%s/%s (per-item %d)" dir u.ens i,
                        [ Synthesis.batch_var ],
                        stmts ))
                segments
      in
      (match st.plan with
      | None -> []
      | Some plan ->
          List.concat_map (piece_regions "forward") st.fwd
          @ List.concat_map (piece_regions "backward") st.bwd
          @
          match plan.Synthesis.zero_grads with
          | [] -> []
          | zs -> [ ("backward/zero-gradients", [], zs) ])

let stats st =
  List.fold_left
    (fun acc (_, _, stmts) -> Ir_stats.add acc (Ir_stats.of_stmts stmts))
    Ir_stats.zero (regions st)

let shape_of st name =
  match st.plan with
  | None -> None
  | Some plan ->
      if Buffer_pool.mem plan.Synthesis.buffers name then
        Some (Tensor.shape (Buffer_pool.lookup plan.Synthesis.buffers name))
      else None

let dump st =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, _, stmts) ->
      Buffer.add_string buf (Printf.sprintf "--- %s ---\n" name);
      Buffer.add_string buf (Ir_printer.stmts_to_string stmts))
    (regions st);
  Buffer.contents buf

let verify st =
  List.concat_map
    (fun (region, bound, stmts) ->
      Ir_verify.verify_stmts ~bound ~shape_of:(shape_of st) ~region stmts)
    (regions st)

(* Interval bounds / safety analysis over the current regions. [None]
   before the synthesize pass (no buffers to check against). Bound loop
   variables get their known ranges — the implicit batch variable spans
   [0, batch); anything else is unconstrained. The data-flow component
   (use-before-init, dead stores) only makes sense once assemble has
   fixed the execution order of complete sections, so it is gated on
   that. *)
let analyze st =
  match st.plan with
  | None -> None
  | Some plan ->
      let rs = regions st in
      let bound_interval v =
        if String.equal v Synthesis.batch_var then
          Ir_bounds.interval 0 (st.batch - 1)
        else Ir_bounds.top
      in
      let rs =
        List.map
          (fun (name, bound, stmts) ->
            (name, List.map (fun v -> (v, bound_interval v)) bound, stmts))
          rs
      in
      let flow =
        match (st.fwd_sections, st.bwd_sections) with
        | Some _, Some _ ->
            let pool = plan.Synthesis.buffers in
            let phys b =
              if Buffer_pool.mem pool b then Buffer_pool.physical pool b else b
            in
            let written = Hashtbl.create 32 and read = Hashtbl.create 32 in
            List.iter
              (fun (_, _, stmts) ->
                List.iter
                  (fun b -> Hashtbl.replace written (phys b) ())
                  (Ir.buffers_written stmts);
                List.iter
                  (fun b -> Hashtbl.replace read (phys b) ())
                  (Ir.buffers_read stmts))
              rs;
            let assume_init =
              Hashtbl.fold
                (fun b () acc -> if Hashtbl.mem written b then acc else b :: acc)
                read []
            in
            let live_out =
              List.concat_map
                (fun (p : Program.param) -> [ p.value_buf; p.grad_buf ])
                plan.Synthesis.params
              |> List.map phys
            in
            Some { Ir_bounds.physical = phys; assume_init; live_out }
        | _ -> None
      in
      Some (Ir_bounds.analyze ~shape_of:(shape_of st) ?flow rs)

let finish st =
  match (st.plan, st.fwd_sections, st.bwd_sections) with
  | Some plan, Some fwd, Some bwd ->
      let schedule_descr =
        match st.config.Config.schedule with
        | Some s when not (Schedule.is_empty s) ->
            Some (Schedule.source_name s ^ ": " ^ Schedule.describe s)
        | _ -> None
      in
      {
        Program.batch_size = st.batch;
        buffers = plan.Synthesis.buffers;
        forward = fwd;
        backward = bwd;
        params = plan.Synthesis.params;
        grad_sizes = plan.Synthesis.grad_sizes;
        schedule_descr;
      }
  | _ ->
      invalid_arg
        "Pass.finish: pipeline did not run the synthesize and assemble passes"
