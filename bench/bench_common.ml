let bench_scale = { Models.image = 32; width_div = 8; fc_div = 32 }
let model_scale = { Models.image = 64; width_div = 2; fc_div = 4 }

type measured = { fwd : float; bwd : float }

let both m = m.fwd +. m.bwd

let fill_random lookup net =
  let rng = Rng.create 4242 in
  (* Fill every Data ensemble's value buffer and the label buffer. *)
  List.iter
    (fun (e : Ensemble.t) ->
      match e.kind with
      | Ensemble.Data ->
          Tensor.fill_uniform rng (lookup (e.name ^ ".value")) ~lo:0.0 ~hi:1.0
      | _ -> ())
    (Net.ensembles net);
  let labels = lookup "label" in
  for i = 0 to Tensor.numel labels - 1 do
    Tensor.set1 labels i 0.0
  done

(* Every forward timing, then every backward one. *)
let time_both ~iters forward backward =
  let fwd = Executor.time_run ~warmup:1 ~iters forward in
  let bwd = Executor.time_run ~warmup:1 ~iters backward in
  { fwd; bwd }

let interleaved ~rounds a b =
  let time f = Executor.time_run ~warmup:0 ~iters:1 f *. 1e3 in
  a ();
  b ();
  let ta = Array.make rounds 0.0 and tb = Array.make rounds 0.0 in
  for r = 0 to rounds - 1 do
    if r mod 2 = 0 then begin
      ta.(r) <- time a;
      tb.(r) <- time b
    end
    else begin
      tb.(r) <- time b;
      ta.(r) <- time a
    end
  done;
  (ta, tb)

let measure_latte ?(config = Config.default) ?opts ?(iters = 3) net =
  let prog = Pipeline.compile ~seed:1 config net in
  let exec = Executor.prepare ?opts prog in
  fill_random (Executor.lookup exec) net;
  ( time_both ~iters
      (fun () -> Executor.forward exec)
      (fun () -> Executor.backward exec),
    exec )

let measure_caffe ?(iters = 3) ~params_from net =
  let c = Caffe_like.of_net ~params_from net in
  fill_random (Caffe_like.lookup c) net;
  time_both ~iters (fun () -> Caffe_like.forward c) (fun () -> Caffe_like.backward c)

let measure_mocha ?(iters = 2) ~params_from net =
  let m = Mocha_like.of_net ~params_from net in
  fill_random (Mocha_like.lookup m) net;
  time_both ~iters (fun () -> Mocha_like.forward m) (fun () -> Mocha_like.backward m)

let modeled_time ?vectorized cpu config net dir =
  let prog = Pipeline.compile ~seed:1 config net in
  Cost_model.program_time ?vectorized cpu prog dir

let header title =
  Printf.printf "\n=== %s ===\n" title

let row label cols =
  Printf.printf "  %-38s %s\n" label
    (String.concat "  " (List.map (Printf.sprintf "%10.3g") cols))

let note s = Printf.printf "  # %s\n" s

(* Integers print exactly, other finite values to six significant
   digits, and NaN or an infinity, which JSON cannot spell, as null. *)
let number v =
  if Float.is_integer v then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.6g" v
  else "null"

let emit ~bench ~case ~preset ?(scope = "") ?samples ?detail ~unit name value =
  let spread =
    match samples with
    | None -> ""
    | Some s ->
        Printf.sprintf ",\"p10\":%s,\"p90\":%s,\"n\":%d"
          (number (Executor.percentile 0.1 s))
          (number (Executor.percentile 0.9 s))
          (Array.length s)
  in
  let detail =
    match detail with None -> "" | Some d -> Printf.sprintf ",\"detail\":%S" d
  in
  Printf.printf
    "{\"bench\":%S,\"case\":%S,\"preset\":%S,\"scope\":%S,\"name\":%S,\
     \"value\":%s,\"unit\":%S%s%s}\n"
    bench case preset scope name (number value) unit spread detail
