(* Accuracy-vs-throughput across the precision presets: every stock
   model forwarded under f32 and int8 (post-training quantized params
   and activations), reporting forward time, storage footprint and
   output fidelity against the f32 run on identical inputs. Each table
   row is followed by its bench rows. *)

let scale = Bench_common.bench_scale

let stock : (string * (unit -> Models.spec)) list =
  [
    ( "mlp",
      fun () ->
        Models.mlp ~batch:4 ~n_inputs:(scale.Models.image * scale.Models.image)
          ~hidden:[ 64 ] ~n_classes:10 );
    ("lenet", fun () -> Models.lenet ~batch:4 ~image:scale.Models.image ~n_classes:10 ());
    ("vgg-block", fun () -> Models.vgg_first_block ~batch:4 ~scale);
    ("alexnet", fun () -> Models.alexnet ~batch:2 ~scale ());
    ("vgg", fun () -> Models.vgg ~batch:1 ~scale);
    ("overfeat", fun () -> Models.overfeat ~batch:1 ~scale);
  ]

(* Deterministic eval batches: batch [i] is the same uniform draw for
   every preset, so fidelity numbers compare like with like. *)
let feed exec (spec : Models.spec) i =
  let rng = Rng.create (1000 + i) in
  Tensor.fill_uniform rng
    (Executor.lookup exec (spec.Models.data_ens ^ ".value"))
    ~lo:0.0 ~hi:1.0;
  Tensor.fill (Executor.lookup exec spec.Models.label_buf) 0.0

let eval_batches = 6

(* Per-item argmax of the output ensemble over the eval batches, plus
   the raw outputs for max-|delta| against the baseline. *)
let eval_outputs exec (spec : Models.spec) =
  let out_buf = spec.Models.output_ens ^ ".value" in
  let outs = ref [] in
  for i = 0 to eval_batches - 1 do
    feed exec spec i;
    Executor.forward exec;
    outs := Tensor.copy (Executor.read_f32 exec out_buf) :: !outs
  done;
  List.rev !outs

let batch_of exec = (Executor.program exec).Program.batch_size

let argmaxes exec outs =
  let b = batch_of exec in
  List.concat_map
    (fun out ->
      let classes = Tensor.numel out / b in
      List.init b (fun i ->
          let best = ref 0 and bv = ref neg_infinity in
          for c = 0 to classes - 1 do
            let v = Tensor.get1 out ((i * classes) + c) in
            if v > !bv then begin
              bv := v;
              best := c
            end
          done;
          !best))
    outs

let fidelity ~base ~cand =
  let da = List.combine base cand in
  let agree =
    List.length (List.filter (fun (a, b) -> a = b) da) * 100
    / max 1 (List.length da)
  in
  agree

let max_delta outs_a outs_b =
  List.fold_left2
    (fun acc a b ->
      let m = ref acc in
      for i = 0 to Tensor.numel a - 1 do
        let d = Float.abs (Tensor.get1 a i -. Tensor.get1 b i) in
        if d > !m then m := d
      done;
      !m)
    0.0 outs_a outs_b

type row = {
  preset : string;
  fwd_ms : float array;  (** One forward per timed round. *)
  bytes : int;
  packed : int;
  agree_pct : int;
  maxd : float;
}

(* Both presets are timed in the same rounds, one forward each per
   round, alternating which goes first: on a shared host, timing nine
   f32 forwards and then nine int8 ones moved lenet's ratio from 0.76x
   to 0.54x between two runs of one build. *)
let rounds = 21

let run_model build =
  (* f32 baseline *)
  let spec = build () in
  let prog32 = Pipeline.compile ~seed:1 Config.default spec.Models.net in
  let exec32 = Executor.prepare prog32 in
  let outs32 = eval_outputs exec32 spec in
  let base = argmaxes exec32 outs32 in
  (* int8: compile f32, calibrate on the eval feed, quantize, re-prepare *)
  let spec8 = build () in
  let prog8 = Pipeline.compile ~seed:1 Config.default spec8.Models.net in
  let exec8 = Executor.prepare prog8 in
  let keep =
    [ spec8.Models.label_buf; spec8.Models.loss_buf;
      spec8.Models.output_ens ^ ".value" ]
  in
  let exec8, packed8 =
    Quantize.quantize ~feed:(feed exec8 spec8) ~keep exec8
  in
  let outs8 = eval_outputs exec8 spec8 in
  let t32, t8 =
    Bench_common.interleaved ~rounds
      (fun () -> Executor.forward exec32)
      (fun () -> Executor.forward exec8)
  in
  let f32 =
    { preset = "f32"; fwd_ms = t32;
      bytes = Buffer_pool.total_bytes prog32.Program.buffers; packed = 0;
      agree_pct = 100; maxd = 0.0 }
  in
  let int8 =
    { preset = "int8"; fwd_ms = t8;
      bytes = Buffer_pool.total_bytes prog8.Program.buffers; packed = packed8;
      agree_pct = fidelity ~base ~cand:(argmaxes exec8 outs8);
      maxd = max_delta outs32 outs8 }
  in
  [ f32; int8 ]

let run () =
  Bench_common.header
    "precision presets: forward throughput vs output fidelity";
  Printf.printf "  %-12s %-6s %8s %17s %8s %10s %7s %8s %10s\n" "model" "preset"
    "fwd ms" "p10-p90 ms" "vs f32" "pool KB" "packed" "top-1 %" "max|d|";
  let pct = Executor.percentile in
  List.iter
    (fun (name, build) ->
      let rows = run_model build in
      let t32 = pct 0.5 (List.hd rows).fwd_ms in
      List.iter
        (fun r ->
          let fwd = pct 0.5 r.fwd_ms in
          Printf.printf "  %-12s %-6s %8.2f %8.2f-%-8.2f %7.2fx %10.1f %7d %7d%% %10.3g\n"
            name r.preset fwd (pct 0.1 r.fwd_ms) (pct 0.9 r.fwd_ms)
            (t32 /. fwd)
            (float_of_int r.bytes /. 1e3)
            r.packed r.agree_pct r.maxd;
          let row =
            Bench_common.emit ~bench:"precision" ~case:name ~preset:r.preset
          in
          row ~unit:"ms" ~samples:r.fwd_ms "fwd_ms" fwd;
          row ~unit:"bytes" "pool_bytes" (float_of_int r.bytes);
          row ~unit:"count" "packed" (float_of_int r.packed);
          row ~unit:"%" "top1_agreement_pct" (float_of_int r.agree_pct);
          row ~unit:"" "max_abs_delta" r.maxd)
        rows)
    stock;
  Bench_common.note
    (Printf.sprintf
       "fwd ms = median of %d rounds, each timing one forward per preset, \
        alternating which goes first; vs f32 = f32 median / this median"
       rounds);
  Bench_common.note
    "top-1 % = argmax agreement with the f32 run on identical inputs"
