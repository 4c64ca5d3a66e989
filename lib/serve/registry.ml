type model = {
  model_name : string;
  input_buf : string;
  output_buf : string;
  seed : int;
  config : Config.t;
  build : unit -> Net.t;
}

type entry = {
  key : string;
  model : string;
  version : int;
  input_buf : string;
  output_buf : string;
  fast : Executor.t;
  reference : Executor.t;
  quantized : bool;  (* fast path serves from reduced-precision storage *)
  fast_costs : (string * float) list;
  ref_costs : (string * float) list;
  batch : int;
  item_numel : int;
  param_bytes : float;
  compile_wall_seconds : float;
  mutable last_used : int;
  mutable pinned : bool;
}

type stats = {
  compiles : int;
  hits : int;
  evictions : int;
  resident : int;
  capacity : int;
}

exception
  Over_budget of { model : string; projected : int; live : int; budget : int }

type t = {
  capacity : int;
  machine : Machine.cpu;
  opts : Executor.Run_opts.t;
  models : (string, model) Hashtbl.t;
  mutable order : string list;  (* model registration order, for listings *)
  entries : (string, entry) Hashtbl.t;  (* key -> prepared pair *)
  footprints : (string, int) Hashtbl.t;
      (* Model name -> measured bytes of one compiled entry (fast +
         reference pools). Versions share the architecture, so the first
         compile's footprint projects every later admission. *)
  mutable tick : int;
  mutable compiles : int;
  mutable hits : int;
  mutable evictions : int;
  mutable evicted_keys : string list;  (* newest first *)
}

let create ?(capacity = 8) ?(machine = Machine.xeon_e5_2699v3)
    ?(opts = Executor.Run_opts.default) () =
  if capacity <= 0 then
    invalid_arg (Printf.sprintf "Registry.create: capacity %d <= 0" capacity);
  (* Every registry carries a cancellation token: the executors it
     compiles share it, which is what lets the fleet cancel a batch
     mid-run. An explicitly provided token is kept. *)
  let opts =
    match opts.Executor.Run_opts.token with
    | Some _ -> opts
    | None -> Executor.Run_opts.with_token (Ir_compile.token ()) opts
  in
  { capacity; machine; opts; models = Hashtbl.create 16; order = [];
    entries = Hashtbl.create 16; footprints = Hashtbl.create 16; tick = 0;
    compiles = 0; hits = 0; evictions = 0; evicted_keys = [] }

let opts t = t.opts

let register t ~name ?(seed = 42) ?(config = Config.default) ~input_buf
    ~output_buf build =
  if Hashtbl.mem t.models name then
    invalid_arg (Printf.sprintf "Registry.register: model %s already registered" name);
  Hashtbl.replace t.models name
    { model_name = name; input_buf; output_buf; seed; config; build };
  t.order <- t.order @ [ name ]

let models t = t.order

let find_model t name =
  match Hashtbl.find_opt t.models name with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Registry: unknown model %s (registered: %s)" name
           (String.concat ", " t.order))

(* The cache key fingerprints everything the prepared executors depend
   on: model identity and version, the Config (describe covers the pass
   list, precision and schedule; tile size and domain count are
   appended), the Run_opts the fleet shares, and the
   version-derived parameter seed — the Tensor-Comprehensions-style
   hash key that makes repeat lookups instant. *)
let key t name ~version =
  let m = find_model t name in
  let c = m.config in
  let safety =
    match t.opts.Executor.Run_opts.safety with
    | Ir_compile.Guard_unproven -> "guard"
    | Ir_compile.Checked -> "checked"
  in
  let fingerprint =
    Printf.sprintf "%s|v%d|%s|tile=%d|dom=%d|safety=%s|seed=%d" name version
      (Config.describe c) c.Config.tile_size t.opts.Executor.Run_opts.domains
      safety (m.seed + version)
  in
  Printf.sprintf "%s#v%d@%s" name version
    (String.sub (Digest.to_hex (Digest.string fingerprint)) 0 12)

let touch t e =
  t.tick <- t.tick + 1;
  e.last_used <- t.tick

let resident t = Hashtbl.length t.entries

let entry_pools e =
  [ (Executor.program e.fast).Program.buffers;
    (Executor.program e.reference).Program.buffers ]

let entry_bytes e =
  List.fold_left (fun acc p -> acc + Buffer_pool.total_bytes p) 0 (entry_pools e)

let release_entry e = List.iter Buffer_pool.release (entry_pools e)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        if e.pinned then acc
        else
          match acc with
          | Some v when v.last_used <= e.last_used -> acc
          | _ -> Some e)
      t.entries None
  in
  match victim with
  | None -> false  (* everything pinned: over-commit rather than fail *)
  | Some e ->
      Hashtbl.remove t.entries e.key;
      release_entry e;
      t.evictions <- t.evictions + 1;
      t.evicted_keys <- e.key :: t.evicted_keys;
      true

let section_costs_of machine (prog : Program.t) =
  let est =
    Cost_model.estimate_sections machine
      ~buf_bytes:(Cost_model.buf_bytes_of prog)
      ~width_of:(Program.width_of prog) prog.Program.forward
  in
  List.map
    (fun (s : Cost_model.section_estimate) -> (s.Cost_model.label, s.Cost_model.seconds))
    est.Cost_model.sections

let sync_params ~from_exec ~to_exec =
  List.iter
    (fun (p : Program.param) ->
      Tensor.blit
        ~src:(Executor.lookup from_exec p.Program.value_buf)
        ~dst:(Executor.lookup to_exec p.Program.value_buf))
    (Executor.program from_exec).Program.params

let compile t m ~version ~key =
  let t0 = Unix.gettimeofday () in
  (* Version k re-initializes parameters under seed + k: a model update
     is the same architecture with new (retrained) weights.

     compile_pair consults the persisted tuning cache when the config
     carries no explicit schedule, so a fleet member that was `latte
     tune`d on this machine serves its tuned schedule, domain count
     included, automatically. The registry key stays
     schedule-independent on purpose: a tuned schedule is bit-identical
     to the default by construction, so tuned and untuned compiles of
     one (model, version) are interchangeable and must not
     double-occupy the admission budget. *)
  let fast, reference =
    Pipeline.compile_pair ~seed:(m.seed + version) ~opts:t.opts m.config m.build
  in
  sync_params ~from_exec:fast ~to_exec:reference;
  let fast_prog = Executor.program fast in
  let input = Executor.lookup fast m.input_buf in
  ignore (Executor.lookup fast m.output_buf);
  ignore (Executor.lookup reference m.input_buf);
  ignore (Executor.lookup reference m.output_buf);
  let batch = fast_prog.Program.batch_size in
  let param_bytes =
    List.fold_left
      (fun acc (p : Program.param) ->
        acc +. (4.0 *. float_of_int (Tensor.numel (Executor.lookup fast p.Program.value_buf))))
      0.0 fast_prog.Program.params
  in
  (* The int8 preset quantizes each compiled version's fast program:
     calibrate on synthetic uniform-[0,1) batches (the load-generator
     feature distribution), repack, re-prepare. The reference stays
     f32 — it is the rollback/degraded path. Re-preparing reuses the
     fast executor's own options, which carry the domain count
     compile_pair chose. *)
  let fast =
    match m.config.Config.precision with
    | `I8 ->
        let rng = Rng.create (m.seed + version + 0x517) in
        let feed _ = Tensor.fill_uniform rng input ~lo:0.0 ~hi:1.0 in
        fst (Quantize.quantize ~feed ~keep:[ m.input_buf; m.output_buf ] fast)
    | `F32 -> fast
  in
  let quantized =
    let pool = fast_prog.Program.buffers in
    List.exists
      (fun b -> not (Buffer_pool.is_f32 pool b))
      (Buffer_pool.names pool)
  in
  t.compiles <- t.compiles + 1;
  { key; model = m.model_name; version; input_buf = m.input_buf;
    output_buf = m.output_buf; fast; reference; quantized;
    fast_costs = section_costs_of t.machine fast_prog;
    ref_costs = section_costs_of t.machine (Executor.program reference);
    batch; item_numel = Tensor.numel input / batch; param_bytes;
    compile_wall_seconds = Unix.gettimeofday () -. t0; last_used = 0;
    pinned = false }

(* Evict LRU entries until live bytes fit under the process budget.
   Returns how many entries were evicted; stops when everything left is
   pinned (over-commit, like capacity eviction). *)
let enforce_budget t =
  match Buffer_pool.budget () with
  | None -> 0
  | Some b ->
      let n = ref 0 in
      while Buffer_pool.live_bytes () > b && evict_lru t do incr n done;
      !n

let get t name ~version =
  let k = key t name ~version in
  match Hashtbl.find_opt t.entries k with
  | Some e ->
      t.hits <- t.hits + 1;
      touch t e;
      e
  | None ->
      let m = find_model t name in
      (* Memory-pressure admission: with a process budget set and this
         model's footprint known from an earlier compile, evict LRU
         entries until the projection fits, and refuse (the caller sheds
         the request) rather than over-allocate when it cannot. *)
      (match (Buffer_pool.budget (), Hashtbl.find_opt t.footprints name) with
      | Some b, Some projected ->
          while Buffer_pool.live_bytes () + projected > b && evict_lru t do
            ()
          done;
          let live = Buffer_pool.live_bytes () in
          if live + projected > b then
            raise (Over_budget { model = name; projected; live; budget = b })
      | _ -> ());
      let e = compile t m ~version ~key:k in
      List.iter Buffer_pool.track (entry_pools e);
      let bytes = entry_bytes e in
      if not (Hashtbl.mem t.footprints name) then
        Hashtbl.replace t.footprints name bytes;
      touch t e;
      while resident t >= t.capacity && evict_lru t do () done;
      (* First compile of an architecture under a budget: the projection
         was unknown, so the allocation may only now reveal the
         overshoot. Evict what we can; if this entry alone still does
         not fit, release it and refuse. *)
      (match Buffer_pool.budget () with
      | Some b ->
          ignore (enforce_budget t);
          if Buffer_pool.live_bytes () > b then begin
            release_entry e;
            raise
              (Over_budget
                 { model = name; projected = bytes;
                   live = Buffer_pool.live_bytes (); budget = b })
          end
      | None -> ());
      Hashtbl.replace t.entries k e;
      e

let peek t name ~version = Hashtbl.find_opt t.entries (key t name ~version)

let set_pinned t name ~version pinned =
  match peek t name ~version with
  | Some e -> e.pinned <- pinned
  | None -> ()

let pin t name ~version =
  (* Pin compiles if needed: a pinned version must be resident. *)
  (get t name ~version).pinned <- true

let unpin t name ~version = set_pinned t name ~version false

let stats t =
  { compiles = t.compiles; hits = t.hits; evictions = t.evictions;
    resident = resident t; capacity = t.capacity }

let evicted_keys t = List.rev t.evicted_keys

let stats_to_string (s : stats) =
  Printf.sprintf "%d compile(s), %d hit(s), %d eviction(s), %d/%d resident"
    s.compiles s.hits s.evictions s.resident s.capacity
