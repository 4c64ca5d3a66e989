type section = {
  label : string;
  ensembles : string list;
  stmts : Ir.stmt list;
}

type param = {
  param_name : string;
  value_buf : string;
  grad_buf : string;
  lr_mult : float;
}

type t = {
  batch_size : int;
  buffers : Buffer_pool.t;
  forward : section list;
  backward : section list;
  params : param list;
  grad_sizes : (string * int) list;
  schedule_descr : string option;
}

let section ~label ~ensembles stmts = { label; ensembles; stmts }

(* The identity of the *network* this program was compiled from, not of
   this particular compilation: ensembles, parameters (with shapes),
   gradient sizes and batch size are fixed by the network description,
   while section structure, buffer aliasing and storage widths vary with
   the optimization config. Keying the tuning cache on this digest is
   what lets a schedule tuned against one compilation be found when the
   same network is compiled again under any config. *)
let fingerprint t =
  let b = Buffer.create 256 in
  Buffer.add_string b (string_of_int t.batch_size);
  (* As a set: how many sections mention an ensemble is a scheduling
     artifact (fusion, GEMM stacking), not network identity. *)
  let ens =
    List.sort_uniq compare (List.concat_map (fun s -> s.ensembles) t.forward)
  in
  List.iter (fun e -> Buffer.add_string b ("\ne:" ^ e)) ens;
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "\np:%s:%s:%s:%g" p.param_name p.value_buf p.grad_buf
           p.lr_mult);
      if Buffer_pool.mem t.buffers p.value_buf then
        Buffer.add_string b
          (":" ^ Shape.to_string (Buffer_pool.shape t.buffers p.value_buf)))
    t.params;
  List.iter
    (fun (n, k) -> Buffer.add_string b (Printf.sprintf "\ng:%s:%d" n k))
    t.grad_sizes;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The execution precision this program's buffers are packed at, in
   Precision.preset_to_string spelling: "int8" when any buffer is
   packed, else "f32". Part of the tuning-cache key so schedules tuned
   at one precision never leak into another. *)
let precision_tag t =
  let packed b = not (Buffer_pool.is_f32 t.buffers b) in
  Precision.preset_to_string
    (if List.exists packed (Buffer_pool.names t.buffers) then `I8 else `F32)

let section_cost ?bytes_of ?width_of s =
  Ir_analysis.cost_of_stmts ?bytes_of ?width_of s.stmts

let width_of t buf =
  if Buffer_pool.mem t.buffers buf then
    float_of_int (Buffer_pool.elem_bytes t.buffers buf)
  else 4.0

let flops t dir =
  let sections = match dir with `Forward -> t.forward | `Backward -> t.backward in
  List.fold_left
    (fun acc s -> acc +. (section_cost s).Ir_analysis.flops)
    0.0 sections

let races t =
  let pool = t.buffers in
  let shape_of buf =
    if Buffer_pool.mem pool buf then Some (Buffer_pool.shape pool buf)
    else None
  in
  let regions =
    List.map (fun s -> ("forward/" ^ s.label, s.stmts)) t.forward
    @ List.map (fun s -> ("backward/" ^ s.label, s.stmts)) t.backward
  in
  List.filter_map
    (fun (label, stmts) ->
      match Ir_deps.analyze_stmts ~shape_of stmts with
      | [] -> None
      | reports -> Some (label, reports))
    regions

let analyze ?(live_out = []) t =
  let pool = t.buffers in
  let shape_of buf =
    if Buffer_pool.mem pool buf then Some (Buffer_pool.shape pool buf)
    else None
  in
  let storage_of buf =
    if Buffer_pool.mem pool buf then Some (Buffer_pool.precision pool buf)
    else None
  in
  let regions =
    List.map (fun s -> ("forward/" ^ s.label, [], s.stmts)) t.forward
    @ List.map (fun s -> ("backward/" ^ s.label, [], s.stmts)) t.backward
  in
  let phys buf = if Buffer_pool.mem pool buf then Buffer_pool.physical pool buf else buf in
  (* Buffers the program only ever reads (input data, parameter values,
     labels) are filled by the runtime before execution; pre-seeding them
     keeps the flow check focused on intra-program ordering. *)
  let written = Hashtbl.create 32 and read = Hashtbl.create 32 in
  List.iter
    (fun (_, _, stmts) ->
      List.iter (fun b -> Hashtbl.replace written (phys b) ()) (Ir.buffers_written stmts);
      List.iter (fun b -> Hashtbl.replace read (phys b) ()) (Ir.buffers_read stmts))
    regions;
  let assume_init =
    Hashtbl.fold (fun b () acc -> if Hashtbl.mem written b then acc else b :: acc) read []
  in
  let param_bufs =
    List.concat_map (fun p -> [ p.value_buf; p.grad_buf ]) t.params
  in
  let flow =
    {
      Ir_bounds.physical = phys;
      assume_init;
      live_out = List.map phys (param_bufs @ live_out);
    }
  in
  Ir_bounds.analyze ~shape_of ~flow ~storage_of regions
