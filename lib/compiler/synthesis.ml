open Ir

type spatial = { y_var : string; y_extent : int }

type fuse_meta = {
  fuse_source : string;
  dep_y : int;
  window_y : int;
  exact : bool;
}

type unit_code = {
  ens : string;
  pre : Ir.stmt list;
  body : Ir.stmt list;
  spatial : spatial option;
  fuse : fuse_meta option;
  barrier : bool;
  global : bool;
}

type plan = {
  net : Net.t;
  config : Config.t;
  buffers : Buffer_pool.t;
  fwd_units : unit_code list;
  bwd_units : unit_code list;
  zero_grads : Ir.stmt list;
  params : Program.param list;
  grad_sizes : (string * int) list;
}

let batch_var = "n"
let dim_var ens j = Printf.sprintf "d%d~%s" j ens
let win_var ens g k = Printf.sprintf "w%d_%d~%s" g k ens
let flat_var ens g = Printf.sprintf "i%d~%s" g ens

(* ------------------------------------------------------------------ *)
(* Per-ensemble synthesis context                                      *)
(* ------------------------------------------------------------------ *)

type conn_info = {
  index : int;
  conn : Connection.t;
  mode : Layout.access_mode;
  src : Ensemble.t;
  src_shape : Shape.t;
  len : int;  (* flattened window size *)
  kept : int list;  (* sink dims indexing the input buffer *)
  extents : int array;  (* window extents per source dim *)
}

type ectx = {
  e : Ensemble.t;
  neuron : Neuron.t;
  conns : conn_info array;
  dim_vars : iexpr array;
  inplace : bool;
  batch : iexpr;
}

let conn_infos net (e : Ensemble.t) =
  Array.of_list
    (List.mapi
       (fun index (conn : Connection.t) ->
         let src = Net.source_of net conn in
         let src_shape = src.Ensemble.shape in
         let mode = Layout.access_mode conn ~src_shape ~sink_shape:e.shape in
         {
           index;
           conn;
           mode;
           src;
           src_shape;
           len = Mapping.window_size conn.mapping ~src_shape;
           kept = Layout.kept_dims conn.mapping ~sink_rank:(Shape.rank e.shape);
           extents = Mapping.window_extents conn.mapping ~src_shape;
         })
       e.connections)

(* ------------------------------------------------------------------ *)
(* Index construction helpers                                          *)
(* ------------------------------------------------------------------ *)

(* Source-ensemble coordinates of window element [coords] of the sink
   neuron at [ectx.dim_vars]. *)
let src_coords ectx ci ~coords =
  match ci.conn.mapping with
  | Mapping.General _ -> invalid_arg "Synthesis.src_coords: general mapping"
  | Mapping.Structured specs ->
      Array.to_list
        (Array.mapi
           (fun k spec ->
             match spec with
             | Mapping.All -> coords.(k)
             | Mapping.Eq d -> ectx.dim_vars.(d)
             | Mapping.Fixed c -> Iconst c
             | Mapping.Slice { lo; _ } -> simplify_iexpr (Iadd (coords.(k), Iconst lo))
             | Mapping.Window { sink_dim; stride; offset; _ } ->
                 simplify_iexpr
                   (Iadd
                      ( Iadd
                          (Imul (Iconst stride, ectx.dim_vars.(sink_dim)), Iconst offset),
                        coords.(k) )))
           specs)

(* Bounds guard for window taps that can leave the source extent. *)
let window_guard ectx ci ~coords =
  match ci.conn.mapping with
  | Mapping.General _ -> None
  | Mapping.Structured specs ->
      let sink_shape = ectx.e.Ensemble.shape in
      let conds = ref [] in
      Array.iteri
        (fun k spec ->
          match spec with
          | Mapping.All | Mapping.Eq _ | Mapping.Fixed _ | Mapping.Slice _ -> ()
          | Mapping.Window { sink_dim; stride; offset; size } ->
              let lo_min = offset in
              let hi_max = (stride * (sink_shape.(sink_dim) - 1)) + offset + size - 1 in
              if lo_min < 0 || hi_max >= ci.src_shape.(k) then begin
                let idx = List.nth (src_coords ectx ci ~coords) k in
                conds :=
                  Icmp (Clt, idx, Iconst ci.src_shape.(k))
                  :: Icmp (Cge, idx, Iconst 0)
                  :: !conds
              end)
        specs;
      match !conds with
      | [] -> None
      | c :: rest -> Some (List.fold_left (fun acc c' -> Cand (acc, c')) c rest)

(* Flattened window index of [coords] (row-major over window extents). *)
let flat_window ci ~coords =
  let acc = ref (Iconst 0) in
  Array.iteri
    (fun k c -> acc := Iadd (Imul (!acc, Iconst ci.extents.(k)), c))
    coords;
  simplify_iexpr !acc

(* Decompose a constant flat window index into per-dimension coords. *)
let unflatten_const ci c =
  let r = Array.length ci.extents in
  let coords = Array.make r (Iconst 0) in
  let rem = ref c in
  for k = r - 1 downto 0 do
    coords.(k) <- Iconst (!rem mod ci.extents.(k));
    rem := !rem / ci.extents.(k)
  done;
  coords

let ens_of ectx = ectx.e.Ensemble.name

let value_idx ectx =
  ectx.batch :: Array.to_list ectx.dim_vars

let kept_vars ectx ci = List.map (fun d -> ectx.dim_vars.(d)) ci.kept

let input_idx ectx ci w = (ectx.batch :: kept_vars ectx ci) @ [ w ]

let field_ref ectx ~grad name idx =
  let f =
    match Neuron.find_field ectx.neuron name with
    | Some f -> f
    | None ->
        failwith
          (Printf.sprintf "Synthesis: ensemble %s kernel references unknown field %s"
             (ens_of ectx) name)
  in
  let buf =
    if grad then Layout.grad_field_buf (ens_of ectx) name
    else Layout.field_buf (ens_of ectx) name
  in
  (buf, Layout.field_index ~sink_shape:ectx.e.shape f ~dim_vars:ectx.dim_vars ~field_idx:idx)

(* ------------------------------------------------------------------ *)
(* Kernel rewriting                                                    *)
(* ------------------------------------------------------------------ *)

let is_direct mode =
  match mode with
  | Layout.Direct | Layout.Alias_identity -> true
  | Layout.Alias_flat | Layout.Copy | Layout.Gather -> false

(* Rewrite a kernel expression, given a substitution for direct-mode
   input references: [direct_input g] yields the source coords currently
   in scope for group [g] (set while expanding a for_inputs loop). *)
let rec xf_fexpr ectx ~direct e =
  let fx = xf_fexpr ectx ~direct in
  match e with
  | Fconst _ | Float_of_int _ -> e
  | Funop (op, a) -> Funop (op, fx a)
  | Fbinop (op, a, b) -> Fbinop (op, fx a, fx b)
  | Select (c, a, b) -> Select (xf_cond ectx ~direct c, fx a, fx b)
  | Load (buf, idx) -> (
      match Kernel.Names.classify buf with
      | Kernel.Names.Value -> Load (Layout.value_buf (ens_of ectx), value_idx ectx)
      | Kernel.Names.Grad -> Load (Layout.grad_buf (ens_of ectx), value_idx ectx)
      | Kernel.Names.Field f ->
          let buf', idx' = field_ref ectx ~grad:false f idx in
          Load (buf', idx')
      | Kernel.Names.Grad_field f ->
          let buf', idx' = field_ref ectx ~grad:true f idx in
          Load (buf', idx')
      | Kernel.Names.Input g ->
          let ci = ectx.conns.(g) in
          let w = match idx with [ w ] -> w | _ ->
            failwith "Synthesis: input reference must have a single index" in
          if is_direct ci.mode then
            let coords = direct_coords ectx ci ~direct w in
            Load (Layout.value_buf ci.src.Ensemble.name,
                  ectx.batch :: src_coords ectx ci ~coords)
          else Load (Layout.input_buf (ens_of ectx) g, input_idx ectx ci w)
      | Kernel.Names.Grad_input _ ->
          failwith "Synthesis: gradient-input read in an expression"
      | Kernel.Names.Concrete -> Load (buf, idx))

and xf_cond ectx ~direct c =
  match c with
  | Icmp (op, a, b) -> Icmp (op, a, b)
  | Fcmp (op, a, b) -> Fcmp (op, xf_fexpr ectx ~direct a, xf_fexpr ectx ~direct b)
  | Cand (a, b) -> Cand (xf_cond ectx ~direct a, xf_cond ectx ~direct b)
  | Cor (a, b) -> Cor (xf_cond ectx ~direct a, xf_cond ectx ~direct b)
  | Cnot a -> Cnot (xf_cond ectx ~direct a)

(* Window coordinates for a direct-mode input reference: either the
   expanded loop variables (if [w] is the input loop var) or a constant
   decomposition. *)
and direct_coords ectx ci ~direct w =
  let g = ci.index in
  match simplify_iexpr w with
  | Iconst c -> unflatten_const ci c
  | Ivar v when List.mem_assoc (g, v) direct -> List.assoc (g, v) direct
  | other ->
      failwith
        (Printf.sprintf
           "Synthesis: ensemble %s group %d: direct-mode input index %s must be \
            the for_inputs variable or a constant"
           (ens_of ectx) g
           (Ir_printer.iexpr_to_string other))

let rec xf_stmt ectx ~direct s : stmt list =
  match s with
  | Store { buf; idx; value } ->
      xf_write ectx ~direct ~accum:None buf idx value
  | Accum { op; buf; idx; value } ->
      xf_write ectx ~direct ~accum:(Some op) buf idx value
  | If (c, t, el) ->
      [ If (xf_cond ectx ~direct c,
            List.concat_map (xf_stmt ectx ~direct) t,
            List.concat_map (xf_stmt ectx ~direct) el) ]
  | Memset _ | Gemm _ | Fusion_barrier _ | Extern _ -> [ s ]
  | For l -> xf_for ectx ~direct l

and xf_for ectx ~direct (l : loop) : stmt list =
  (* Recognize for_inputs loops by their variable name. *)
  let input_group =
    let prefix = "@i" in
    if String.length l.var > 2 && String.sub l.var 0 2 = prefix then
      int_of_string_opt (String.sub l.var 2 (String.length l.var - 2))
    else None
  in
  match input_group with
  | Some g when g < Array.length ectx.conns && is_direct ectx.conns.(g).mode ->
      (* Expand into nested window loops over the source dimensions. *)
      let ci = ectx.conns.(g) in
      let r = Array.length ci.extents in
      let coords =
        Array.init r (fun k ->
            if ci.extents.(k) = 1 then Iconst 0
            else Ivar (win_var (ens_of ectx) g k))
      in
      let direct = ((g, l.var), coords) :: direct in
      let inner = List.concat_map (xf_stmt ectx ~direct) l.body in
      let inner =
        match window_guard ectx ci ~coords with
        | Some guard -> [ If (guard, inner, []) ]
        | None -> inner
      in
      let nest =
        Array.to_list coords
        |> List.mapi (fun k c -> (k, c))
        |> List.rev
        |> List.fold_left
             (fun body (k, c) ->
               match c with
               | Ivar v -> [ For { var = v; lo = Iconst 0; hi = Iconst ci.extents.(k);
                                    body; parallel = false; tile = None; vectorize = false } ]
               | _ -> body)
             inner
      in
      nest
  | Some g when g < Array.length ectx.conns ->
      (* Copy/alias mode: keep the flat loop under a unique name. *)
      let v' = flat_var (ens_of ectx) g in
      let body = List.map (subst_stmt l.var (Ivar v')) l.body in
      let body = List.concat_map (xf_stmt ectx ~direct) body in
      [ For { l with var = v'; body } ]
  | _ ->
      [ For { l with body = List.concat_map (xf_stmt ectx ~direct) l.body } ]

and xf_write ectx ~direct ~accum buf idx value : stmt list =
  let value' = xf_fexpr ectx ~direct value in
  let mk target tidx =
    match accum with
    | None -> Store { buf = target; idx = tidx; value = value' }
    | Some op -> Accum { op; buf = target; idx = tidx; value = value' }
  in
  match Kernel.Names.classify buf with
  | Kernel.Names.Value -> [ mk (Layout.value_buf (ens_of ectx)) (value_idx ectx) ]
  | Kernel.Names.Grad -> [ mk (Layout.grad_buf (ens_of ectx)) (value_idx ectx) ]
  | Kernel.Names.Grad_field f ->
      let buf', idx' = field_ref ectx ~grad:true f idx in
      [ mk buf' idx' ]
  | Kernel.Names.Field f ->
      let buf', idx' = field_ref ectx ~grad:false f idx in
      [ mk buf' idx' ]
  | Kernel.Names.Grad_input g ->
      let ci = ectx.conns.(g) in
      let w = match idx with [ w ] -> w | _ ->
        failwith "Synthesis: grad-input reference must have a single index" in
      if is_direct ci.mode then begin
        let coords = direct_coords ectx ci ~direct w in
        let tidx = ectx.batch :: src_coords ectx ci ~coords in
        let target = Layout.grad_buf ci.src.Ensemble.name in
        (* In-place activations replace the source gradient rather than
           accumulating into it: the buffers alias. *)
        if ectx.inplace then [ Store { buf = target; idx = tidx; value = value' } ]
        else [ mk target tidx ]
      end
      else [ mk (Layout.grad_input_buf (ens_of ectx) g) (input_idx ectx ci w) ]
  | Kernel.Names.Input _ -> failwith "Synthesis: write to an input value"
  | Kernel.Names.Concrete -> [ mk buf idx ]

(* Substitute @len<g> constants, then rewrite. *)
let rewrite_kernel ectx stmts =
  let stmts =
    List.map
      (fun s ->
        Array.fold_left
          (fun s ci ->
            subst_stmt (Kernel.Names.input_len_var ci.index) (Iconst ci.len) s)
          s ectx.conns)
      stmts
  in
  List.concat_map (xf_stmt ectx ~direct:[]) stmts

(* Wrap one kernel statement in the ensemble dimension loops (loop
   distribution: each top-level kernel statement gets its own nest, so
   reductions stay perfect nests for the pattern matcher). *)
let wrap_dims ectx stmts =
  let shape = ectx.e.Ensemble.shape in
  let rec build j =
    if j = Shape.rank shape then stmts
    else
      [ For { var = dim_var (ens_of ectx) j; lo = Iconst 0; hi = Iconst shape.(j);
               body = build (j + 1); parallel = false; tile = None; vectorize = false } ]
  in
  build 0

let compute_nests ectx kernel =
  List.concat_map (fun s -> wrap_dims ectx (rewrite_kernel ectx [ s ])) kernel

(* ------------------------------------------------------------------ *)
(* Data-copy tasks (§5.3)                                              *)
(* ------------------------------------------------------------------ *)

(* The copy statement itself, shared by both copy-task layouts. *)
let copy_stmt ectx ci ~backward ~coords ~flat =
  let ens = ens_of ectx in
  let g = ci.index in
  if backward then
    Accum
      {
        op = Acc_sum;
        buf = Layout.grad_buf ci.src.Ensemble.name;
        idx = ectx.batch :: src_coords ectx ci ~coords;
        value = Load (Layout.grad_input_buf ens g, input_idx ectx ci flat);
      }
  else
    Store
      {
        buf = Layout.input_buf ens g;
        idx = input_idx ectx ci flat;
        value =
          Load (Layout.value_buf ci.src.Ensemble.name,
                ectx.batch :: src_coords ectx ci ~coords);
      }

let mk_loop var lo hi body =
  For { var; lo; hi; body; parallel = false; tile = None; vectorize = false }

(* Guarded layout (fallback for unusual mappings): kept sink dims outer,
   window loops inner, per-element bounds Select/If. *)
let copy_task_guarded ectx ci ~backward =
  let ens = ens_of ectx in
  let g = ci.index in
  let r = Array.length ci.extents in
  let coords =
    Array.init r (fun k ->
        if ci.extents.(k) = 1 then Iconst 0 else Ivar (win_var ens g k))
  in
  let flat = flat_window ci ~coords in
  let guard = window_guard ectx ci ~coords in
  let stmt = copy_stmt ectx ci ~backward ~coords ~flat in
  let body =
    match (guard, stmt, backward) with
    | Some c, _, true -> [ If (c, [ stmt ], []) ]
    | Some c, Store st, false ->
        [ Store { st with value = Select (c, st.value, Fconst 0.0) } ]
    | Some c, _, false -> [ If (c, [ stmt ], []) ]
    | None, _, _ -> [ stmt ]
  in
  let with_windows =
    List.fold_left
      (fun body k ->
        match coords.(k) with
        | Ivar v -> [ mk_loop v (Iconst 0) (Iconst ci.extents.(k)) body ]
        | _ -> body)
      body
      (List.rev (List.init r Fun.id))
  in
  List.fold_left
    (fun body d ->
      [ mk_loop (dim_var ens d) (Iconst 0) (Iconst ectx.e.Ensemble.shape.(d)) body ])
    with_windows (List.rev ci.kept)

(* Fast layout: window loops outermost, window-driven sink dims inside
   them with loop bounds *clamped* so every iteration is in bounds — no
   per-element guards. Which loop finally runs innermost is decided
   after assembly by the stride-aware permutation step (Ir_order, run
   from the simplify pass), which sinks a long unit-stride channel
   loop below short clamped ones. The forward input buffer is
   pre-zeroed once per pass when padding makes some entries
   unreachable. *)
let copy_task_clamped ectx ci ~backward =
  let ens = ens_of ectx in
  let g = ci.index in
  let specs =
    match ci.conn.mapping with
    | Mapping.Structured specs -> specs
    | Mapping.General _ -> invalid_arg "copy_task_clamped: general mapping"
  in
  let r = Array.length ci.extents in
  let coords =
    Array.init r (fun k ->
        if ci.extents.(k) = 1 then Iconst 0 else Ivar (win_var ens g k))
  in
  let flat = flat_window ci ~coords in
  let stmt = copy_stmt ectx ci ~backward ~coords ~flat in
  let sink_shape = ectx.e.Ensemble.shape in
  (* Inside: window-driven sink dims, bounds clamped against the
     source extent as a function of the window coordinate. *)
  let windowed_pairs =
    List.filter_map
      (fun k ->
        match specs.(k) with
        | Mapping.Window { sink_dim; stride; offset; _ } ->
            Some (k, sink_dim, stride, offset)
        | Mapping.All | Mapping.Eq _ | Mapping.Fixed _ | Mapping.Slice _ -> None)
      (List.init r Fun.id)
  in
  let body =
    List.fold_left
      (fun body (k, sink_dim, stride, offset) ->
        let ext = sink_shape.(sink_dim) in
        let oob =
          offset < 0 || (stride * (ext - 1)) + offset + ci.extents.(k) > ci.src_shape.(k)
        in
        let lo, hi =
          if not oob then (Iconst 0, Iconst ext)
          else begin
            (* 0 <= stride*d + offset + w < src_ext, solved for d. *)
            let w = coords.(k) in
            let lo =
              Imax (Iconst 0,
                    Idiv (Isub (Iconst (stride - 1 - offset), w), Iconst stride))
            in
            (* hi = floor((src-1-offset-w)/stride) + 1, computed as
               trunc((src-1-offset-w+stride)/stride) which is exact for
               any numerator >= -stride, clamped at 0 below that. *)
            let hi =
              Imin (Iconst ext,
                    Imax (Iconst 0,
                          Idiv (Isub (Iconst (ci.src_shape.(k) - 1 - offset + stride), w),
                                Iconst stride)))
            in
            (lo, hi)
          end
        in
        [ mk_loop (dim_var ens sink_dim) lo hi body ])
      [ stmt ]
      (List.rev windowed_pairs)
  in
  (* Then all window/channel coordinates. *)
  let body =
    List.fold_left
      (fun body k ->
        match coords.(k) with
        | Ivar v -> [ mk_loop v (Iconst 0) (Iconst ci.extents.(k)) body ]
        | _ -> body)
      body
      (List.rev (List.init r Fun.id))
  in
  (* Outermost: kept dims not driven by a window (Eq). *)
  let windowed_sinks = List.map (fun (_, d, _, _) -> d) windowed_pairs in
  let body =
    List.fold_left
      (fun body d ->
        if List.mem d windowed_sinks then body
        else [ mk_loop (dim_var ens d) (Iconst 0) (Iconst sink_shape.(d)) body ])
      body (List.rev ci.kept)
  in
  let needs_prezero =
    (not backward)
    && List.exists
         (fun (k, sink_dim, stride, offset) ->
           offset < 0
           || (stride * (sink_shape.(sink_dim) - 1)) + offset + ci.extents.(k)
              > ci.src_shape.(k))
         windowed_pairs
  in
  (body, needs_prezero)

(* A clamped copy is possible when each window-driven sink dim is driven
   by exactly one window spec. *)
let clamped_ok ci =
  match ci.conn.mapping with
  | Mapping.General _ -> false
  | Mapping.Structured specs ->
      let driven = Hashtbl.create 4 in
      let ok = ref true in
      Array.iter
        (fun spec ->
          match spec with
          | Mapping.Window { sink_dim; _ } ->
              if Hashtbl.mem driven sink_dim then ok := false
              else Hashtbl.replace driven sink_dim ()
          | Mapping.All | Mapping.Eq _ | Mapping.Fixed _ | Mapping.Slice _ -> ())
        specs;
      !ok

let copy_task ectx ci ~backward =
  if clamped_ok ci then
    let body, _ = copy_task_clamped ectx ci ~backward in
    body
  else copy_task_guarded ectx ci ~backward

let copy_task_prezero ectx ci =
  if clamped_ok ci then snd (copy_task_clamped ectx ci ~backward:false)
  else false

(* ------------------------------------------------------------------ *)
(* Gather tasks for general mappings                                   *)
(* ------------------------------------------------------------------ *)

let build_adjacency ci (sink_shape : Shape.t) =
  let n_sink = Shape.numel sink_shape in
  Array.init n_sink (fun flat_sink ->
      let sink_idx = Shape.unravel sink_shape flat_sink in
      let ranges = Mapping.ranges ci.conn.mapping ~sink_idx ~src_shape:ci.src_shape in
      let dims = Array.map (fun (lo, hi) -> hi - lo) ranges in
      let count = Array.fold_left ( * ) 1 dims in
      let out = Array.make count (-1) in
      let strides = Shape.strides ci.src_shape in
      let pos = ref 0 in
      let rec go k flat =
        if k = Array.length ranges then begin
          out.(!pos) <- flat;
          incr pos
        end
        else
          let lo, hi = ranges.(k) in
          for j = lo to hi - 1 do
            if j >= 0 && j < ci.src_shape.(k) then go (k + 1) (flat + (j * strides.(k)))
            else begin
              (* Out-of-range taps read as zero: mark and skip. *)
              let skip = Array.fold_left ( * ) 1 (Array.sub dims (k + 1) (Array.length dims - k - 1)) in
              pos := !pos + skip
            end
          done
      in
      go 0 0;
      out)

let gather_externs ectx ci =
  let ens = ens_of ectx in
  let g = ci.index in
  let sink_shape = ectx.e.Ensemble.shape in
  let adj = lazy (build_adjacency ci sink_shape) in
  let n_sink = Shape.numel sink_shape in
  let len = ci.len in
  let src_value = Layout.value_buf ci.src.Ensemble.name in
  let src_grad = Layout.grad_buf ci.src.Ensemble.name in
  let in_buf = Layout.input_buf ens g in
  let gin_buf = Layout.grad_input_buf ens g in
  let fwd =
    Extern
      {
        name = Printf.sprintf "gather:%s.in%d" ens g;
        reads = [ src_value ];
        writes = [ in_buf ];
        item_var = Some batch_var;
        run =
          (fun ~lookup ~item ->
            let adj = Lazy.force adj in
            let src = lookup src_value and dst = lookup in_buf in
            let src_items = Tensor.numel src / (Tensor.shape src).(0) in
            let src_off = item * src_items in
            let dst_off = item * n_sink * len in
            for s = 0 to n_sink - 1 do
              let row = adj.(s) in
              for w = 0 to len - 1 do
                let v =
                  if row.(w) >= 0 then Tensor.unsafe_get src (src_off + row.(w))
                  else 0.0
                in
                Tensor.unsafe_set dst (dst_off + (s * len) + w) v
              done
            done);
      }
  in
  let bwd =
    Extern
      {
        name = Printf.sprintf "scatter:%s.gin%d" ens g;
        reads = [ gin_buf ];
        writes = [ src_grad ];
        item_var = Some batch_var;
        run =
          (fun ~lookup ~item ->
            let adj = Lazy.force adj in
            let src = lookup gin_buf and dst = lookup src_grad in
            let dst_items = Tensor.numel dst / (Tensor.shape dst).(0) in
            let dst_off = item * dst_items in
            let src_off = item * n_sink * len in
            for s = 0 to n_sink - 1 do
              let row = adj.(s) in
              for w = 0 to len - 1 do
                if row.(w) >= 0 then
                  Tensor.unsafe_set dst
                    (dst_off + row.(w))
                    (Tensor.unsafe_get dst (dst_off + row.(w))
                    +. Tensor.unsafe_get src (src_off + (s * len) + w))
              done
            done);
      }
  in
  (fwd, bwd)

(* ------------------------------------------------------------------ *)
(* Field initialization                                                *)
(* ------------------------------------------------------------------ *)

let init_field rng tensor (f : Neuron.field) =
  match f.init with
  | Neuron.Zeros -> ()
  | Neuron.Const c -> Tensor.fill tensor c
  | Neuron.Xavier { fan_in; fan_out } -> Tensor.fill_xavier rng tensor ~fan_in ~fan_out
  | Neuron.Gaussian { mean; sigma } -> Tensor.fill_gaussian rng tensor ~mean ~sigma
  | Neuron.Uniform { lo; hi } -> Tensor.fill_uniform rng tensor ~lo ~hi

(* ------------------------------------------------------------------ *)
(* Fuse metadata                                                       *)
(* ------------------------------------------------------------------ *)

let fuse_meta_of ectx =
  match Array.to_list ectx.conns with
  | [ ci ] when not ci.conn.recurrent -> (
      let sink_shape = ectx.e.Ensemble.shape in
      if Shape.rank sink_shape = 0 || Shape.rank ci.src_shape = 0 then None
      else
        match ci.conn.mapping with
        | Mapping.General _ -> None
        | Mapping.Structured specs ->
            let window_y, offset_y =
              match specs.(0) with
              | Mapping.Window { sink_dim = 0; size; offset; _ } -> (size, offset)
              | Mapping.Eq 0 -> (1, 0)
              | Mapping.All -> (ci.src_shape.(0), 0)
              | Mapping.Eq _ | Mapping.Fixed _ | Mapping.Window _ | Mapping.Slice _ ->
                  (0, 0)
            in
            let dep_y =
              Option.value ~default:0 (Mapping.dep_distance ci.conn.mapping ~sink_dim:0)
            in
            let exact =
              window_y > 0 && dep_y = window_y && offset_y = 0
              && is_direct ci.mode
              && ci.src_shape.(0) = sink_shape.(0) * dep_y
            in
            Some { fuse_source = ci.src.Ensemble.name; dep_y; window_y; exact })
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Main driver                                                         *)
(* ------------------------------------------------------------------ *)

let kernel_accums_value stmts =
  let found = ref false in
  let rec go s =
    match s with
    | Accum { buf; _ } when Kernel.Names.classify buf = Kernel.Names.Value ->
        found := true
    | Accum _ | Store _ | Memset _ | Gemm _ | Fusion_barrier _ | Extern _ -> ()
    | For l -> List.iter go l.body
    | If (_, t, e) -> List.iter go t; List.iter go e
  in
  List.iter go stmts;
  !found

let run ?(seed = 42) (config : Config.t) net =
  let rng = Rng.create seed in
  let buffers = Buffer_pool.create () in
  let batch = Net.batch_size net in
  List.iter
    (fun (name, item_shape) ->
      ignore (Buffer_pool.alloc buffers name (Shape.create (batch :: item_shape))))
    (Net.externals net);
  let order = Net.topo_order net in
  let params = ref [] in
  let grad_sizes = ref [] in
  let zero = ref [] in
  let fwd_units = ref [] in
  let bwd_units = ref [] in
  let batch_shape s = Shape.concat [| batch |] s in

  let zero_buf name = zero := Memset { buf = name; value = 0.0 } :: !zero in

  (* Sources of recurrent connections must keep their previous-step
     values intact; running a consumer in place would clobber them. *)
  let recurrent_sources =
    List.concat_map
      (fun (e : Ensemble.t) ->
        List.filter_map
          (fun (c : Connection.t) -> if c.recurrent then Some c.source else None)
          e.connections)
      (Net.ensembles net)
  in

  (* An ensemble whose backward pass reads its own output value cannot
     have that value overwritten by an in-place consumer: max pooling
     compares inputs against its max, sigmoid/tanh differentiate through
     their outputs, and normalization backward functions read the
     normalized values. *)
  let backward_reads_value (e : Ensemble.t) =
    let kernel_reads_value stmts =
      let found = ref false in
      let rec go_f ex =
        match ex with
        | Load (buf, _) ->
            if Kernel.Names.classify buf = Kernel.Names.Value then found := true
        | Fconst _ | Float_of_int _ -> ()
        | Funop (_, a) -> go_f a
        | Fbinop (_, a, b) -> go_f a; go_f b
        | Select (c, a, b) -> go_c c; go_f a; go_f b
      and go_c c =
        match c with
        | Icmp _ -> ()
        | Fcmp (_, a, b) -> go_f a; go_f b
        | Cand (a, b) | Cor (a, b) -> go_c a; go_c b
        | Cnot a -> go_c a
      and go s =
        match s with
        | Store { value; _ } | Accum { value; _ } -> go_f value
        | For l -> List.iter go l.body
        | If (c, t, el) -> go_c c; List.iter go t; List.iter go el
        | Memset _ | Gemm _ | Fusion_barrier _ | Extern _ -> ()
      in
      List.iter go stmts;
      !found
    in
    match e.Ensemble.kind with
    | Ensemble.Data | Ensemble.Concat -> false
    | Ensemble.Normalization ops -> Option.is_some ops.Ensemble.bwd
    | Ensemble.Compute nt | Ensemble.Activation nt ->
        kernel_reads_value nt.Neuron.backward
  in

  (* Pass 1: decide in-place execution and allocate every ensemble's
     value and gradient buffer, so that pass 2 can alias input buffers
     of *recurrent* connections whose source appears later in the
     topological order. *)
  let prepared = Hashtbl.create 16 in
  let prepare (e : Ensemble.t) =
    let ens = e.name in
    let conns = conn_infos net e in
    (* In-place activation decision: identity access, single consumer of
       the source, and the layout pass enabled. *)
    let inplace =
      match (e.kind, Array.to_list conns) with
      | Ensemble.Activation _, [ ci ] ->
          Config.enabled "layout" config
          && ci.mode = Layout.Alias_identity
          && (not (List.mem ci.src.Ensemble.name recurrent_sources))
          && (not (backward_reads_value ci.src))
          && (match Dataflow.successors (Net.graph net) ci.src.Ensemble.name with
             | [ s ] -> String.equal s ens
             | _ -> false)
      | _ -> false
    in
    Hashtbl.replace prepared ens (conns, inplace);
    (* Value and gradient buffers. *)
    let vshape = batch_shape e.shape in
    if inplace then begin
      let src = conns.(0).src.Ensemble.name in
      ignore (Buffer_pool.alias buffers (Layout.value_buf ens)
                ~target:(Layout.value_buf src) ~shape:vshape);
      ignore (Buffer_pool.alias buffers (Layout.grad_buf ens)
                ~target:(Layout.grad_buf src) ~shape:vshape)
    end
    else begin
      ignore (Buffer_pool.alloc buffers (Layout.value_buf ens) vshape);
      ignore (Buffer_pool.alloc buffers (Layout.grad_buf ens) vshape)
    end
  in

  let process (e : Ensemble.t) =
    let ens = e.name in
    let conns, inplace = Hashtbl.find prepared ens in
    (* Input buffers per connection. *)
    Array.iter
      (fun ci ->
        let g = ci.index in
        match ci.mode with
        | Layout.Copy | Layout.Gather ->
            let shape =
              Layout.input_buf_shape ~batch ~sink_shape:e.shape
                ~src_shape:ci.src_shape ci.conn.mapping
            in
            ignore (Buffer_pool.alloc buffers (Layout.input_buf ens g) shape);
            ignore (Buffer_pool.alloc buffers (Layout.grad_input_buf ens g) shape);
            zero_buf (Layout.grad_input_buf ens g)
        | Layout.Alias_flat ->
            let shape = Shape.create [ batch; ci.len ] in
            ignore (Buffer_pool.alias buffers (Layout.input_buf ens g)
                      ~target:(Layout.value_buf ci.src.Ensemble.name) ~shape);
            ignore (Buffer_pool.alias buffers (Layout.grad_input_buf ens g)
                      ~target:(Layout.grad_buf ci.src.Ensemble.name) ~shape)
        | Layout.Direct | Layout.Alias_identity -> ())
      conns;
    (* Fields. *)
    let neuron = Ensemble.neuron e in
    (match neuron with
    | None -> ()
    | Some nt ->
        let learn_elems = ref 0 in
        List.iter
          (fun (f : Neuron.field) ->
            let shape = Layout.field_buf_shape ~sink_shape:e.shape f in
            let t = Buffer_pool.alloc buffers (Layout.field_buf ens f.name) shape in
            init_field rng t f;
            if f.learnable then begin
              ignore (Buffer_pool.alloc buffers (Layout.grad_field_buf ens f.name) shape);
              zero_buf (Layout.grad_field_buf ens f.name);
              learn_elems := !learn_elems + Shape.numel shape;
              params :=
                {
                  Program.param_name = Layout.field_buf ens f.name;
                  value_buf = Layout.field_buf ens f.name;
                  grad_buf = Layout.grad_field_buf ens f.name;
                  lr_mult = f.lr_mult;
                }
                :: !params
            end)
          nt.fields;
        if !learn_elems > 0 then grad_sizes := (ens, !learn_elems) :: !grad_sizes);
    (* Gradient buffer zeroing (skip aliases: the physical buffer is
       zeroed once through its owner). *)
    if not inplace then zero_buf (Layout.grad_buf ens);
    (* Code units. *)
    match e.kind with
    | Ensemble.Data -> ()
    | Ensemble.Compute nt | Ensemble.Activation nt ->
        let ectx =
          {
            e;
            neuron = nt;
            conns;
            dim_vars = Array.init (Shape.rank e.shape) (fun j -> Ivar (dim_var ens j));
            inplace;
            batch = Ivar batch_var;
          }
        in
        let fwd_copies =
          Array.to_list conns
          |> List.concat_map (fun ci ->
                 match ci.mode with
                 | Layout.Copy -> copy_task ectx ci ~backward:false
                 | Layout.Gather -> [ fst (gather_externs ectx ci) ]
                 | Layout.Alias_flat | Layout.Alias_identity | Layout.Direct -> [])
        in
        let copy_prezeros =
          Array.to_list conns
          |> List.filter_map (fun ci ->
                 if ci.mode = Layout.Copy && copy_task_prezero ectx ci then
                   Some (Memset { buf = Layout.input_buf (ens_of ectx) ci.index;
                                  value = 0.0 })
                 else None)
        in
        let bwd_copies =
          Array.to_list conns
          |> List.concat_map (fun ci ->
                 match ci.mode with
                 | Layout.Copy -> copy_task ectx ci ~backward:true
                 | Layout.Gather -> [ snd (gather_externs ectx ci) ]
                 | Layout.Alias_flat | Layout.Alias_identity | Layout.Direct -> [])
        in
        let pre =
          copy_prezeros
          @
          if kernel_accums_value nt.forward && not inplace then
            [ Memset { buf = Layout.value_buf ens; value = 0.0 } ]
          else []
        in
        let has_gather = Array.exists (fun ci -> ci.mode = Layout.Gather) conns in
        let spatial =
          if Shape.rank e.shape >= 1 then
            Some { y_var = dim_var ens 0; y_extent = e.shape.(0) }
          else None
        in
        let fuse = fuse_meta_of ectx in
        fwd_units :=
          {
            ens;
            pre;
            body = fwd_copies @ compute_nests ectx nt.forward;
            spatial;
            fuse;
            barrier = has_gather;
            global = false;
          }
          :: !fwd_units;
        bwd_units :=
          {
            ens;
            pre = [];
            body = compute_nests ectx nt.backward @ bwd_copies;
            spatial;
            fuse;
            barrier = has_gather;
            global = false;
          }
          :: !bwd_units
    | Ensemble.Concat ->
        (* Channel concatenation: per source, a copy of its channels
           into the destination slice; backward scatters gradients
           back. The copies are plain loop nests, so concat tiles and
           (as a producer) participates in section structure like any
           other spatial unit. *)
        let rank = Shape.rank e.shape in
        if rank < 1 then failwith (Printf.sprintf "Synthesis: concat %s needs rank >= 1" ens);
        let lead = rank - 1 in
        let dim_vars = Array.init rank (fun j -> Ivar (dim_var ens j)) in
        let total =
          Array.fold_left
            (fun off ci ->
              let src_shape = ci.src_shape in
              if Shape.rank src_shape <> rank then
                failwith (Printf.sprintf "Synthesis: concat %s: rank mismatch" ens);
              for j = 0 to lead - 1 do
                if src_shape.(j) <> e.shape.(j) then
                  failwith
                    (Printf.sprintf "Synthesis: concat %s: leading dim mismatch" ens)
              done;
              off + src_shape.(rank - 1))
            0 conns
        in
        if total <> e.shape.(rank - 1) then
          failwith
            (Printf.sprintf "Synthesis: concat %s: channels %d <> sum of inputs %d"
               ens e.shape.(rank - 1) total);
        let piece ~backward ci off =
          let g = ci.index in
          let kvar = flat_var ens g in
          let lead_idx = List.init lead (fun j -> dim_vars.(j)) in
          let dst_idx = (Ivar batch_var :: lead_idx) @ [ Iadd (Ivar kvar, Iconst off) ] in
          let src_idx = (Ivar batch_var :: lead_idx) @ [ Ivar kvar ] in
          let stmt =
            if backward then
              Accum
                {
                  op = Acc_sum;
                  buf = Layout.grad_buf ci.src.Ensemble.name;
                  idx = src_idx;
                  value = Load (Layout.grad_buf ens, dst_idx);
                }
            else
              Store
                {
                  buf = Layout.value_buf ens;
                  idx = dst_idx;
                  value = Load (Layout.value_buf ci.src.Ensemble.name, src_idx);
                }
          in
          let body =
            [ mk_loop kvar (Iconst 0) (Iconst ci.src_shape.(rank - 1)) [ stmt ] ]
          in
          List.fold_left
            (fun body j -> [ mk_loop (dim_var ens j) (Iconst 0) (Iconst e.shape.(j)) body ])
            body
            (List.rev (List.init lead Fun.id))
        in
        let bodies backward =
          snd
            (Array.fold_left
               (fun (off, acc) ci ->
                 (off + ci.src_shape.(rank - 1), acc @ piece ~backward ci off))
               (0, []) conns)
        in
        let spatial =
          if rank >= 1 then Some { y_var = dim_var ens 0; y_extent = e.shape.(0) }
          else None
        in
        fwd_units :=
          { ens; pre = []; body = bodies false; spatial; fuse = None;
            barrier = false; global = false }
          :: !fwd_units;
        bwd_units :=
          { ens; pre = []; body = bodies true; spatial; fuse = None;
            barrier = false; global = false }
          :: !bwd_units
    | Ensemble.Normalization ops ->
        let ci =
          match Array.to_list conns with
          | [ ci ] -> ci
          | _ -> failwith (Printf.sprintf
                   "Synthesis: normalization ensemble %s needs exactly one input" ens)
        in
        let bufs =
          {
            Ensemble.value = Layout.value_buf ens;
            grad = Layout.grad_buf ens;
            src_value = Layout.value_buf ci.src.Ensemble.name;
            src_grad =
              (if Ensemble.needs_grad ci.src then
                 Some (Layout.grad_buf ci.src.Ensemble.name)
               else None);
          }
        in
        let mk_extern name fn reads writes =
          Extern
            {
              name = Printf.sprintf "%s:%s" name ens;
              reads;
              writes;
              item_var = (if ops.per_item then Some batch_var else None);
              run = (fun ~lookup ~item -> fn ~bufs ~lookup ~item);
            }
        in
        let fwd_reads = (bufs.src_value :: ops.extra_reads) in
        let fwd =
          mk_extern "norm_fwd" ops.fwd fwd_reads (bufs.value :: ops.extra_writes)
        in
        let bwd =
          match (ops.bwd, bufs.src_grad) with
          | Some fn, Some sg ->
              [ mk_extern "norm_bwd" fn
                  (bufs.value :: bufs.grad :: ops.extra_reads)
                  (sg :: ops.extra_writes) ]
          | _ -> []
        in
        fwd_units :=
          { ens; pre = []; body = [ fwd ]; spatial = None; fuse = None;
            barrier = true; global = not ops.per_item }
          :: !fwd_units;
        bwd_units :=
          { ens; pre = []; body = bwd; spatial = None; fuse = None;
            barrier = true; global = not ops.per_item }
          :: !bwd_units
  in
  List.iter prepare order;
  List.iter process order;
  {
    net;
    config;
    buffers;
    fwd_units = List.rev !fwd_units;
    bwd_units = !bwd_units;
    zero_grads = List.rev !zero;
    params = List.rev !params;
    grad_sizes = !grad_sizes;
  }
