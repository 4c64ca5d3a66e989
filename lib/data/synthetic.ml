type dataset = {
  features : Tensor.t;
  labels : Tensor.t;
  n_classes : int;
}

let gaussian_classes ~seed ~n ~n_classes ~item_shape ~separation =
  let rng = Rng.create seed in
  let item = Shape.create item_shape in
  let d = Shape.numel item in
  let prototypes =
    Array.init n_classes (fun _ ->
        Array.init d (fun _ -> Rng.gaussian rng *. separation))
  in
  let features = Tensor.create (Shape.create (n :: item_shape)) in
  let labels = Tensor.create (Shape.create [ n ]) in
  for i = 0 to n - 1 do
    let cls = Rng.int rng n_classes in
    Tensor.set1 labels i (float_of_int cls);
    let base = i * d in
    for j = 0 to d - 1 do
      Tensor.set1 features (base + j) (prototypes.(cls).(j) +. Rng.gaussian rng)
    done
  done;
  { features; labels; n_classes }

(* Smooth prototype: bilinear upsampling of a coarse random grid. *)
let smooth_prototype rng ~image ~grid =
  let coarse = Array.init (grid * grid) (fun _ -> Rng.uniform rng ~lo:0.0 ~hi:1.0) in
  let sample y x =
    (* Map pixel coords to the coarse grid and interpolate. *)
    let fy = float_of_int y /. float_of_int (image - 1) *. float_of_int (grid - 1) in
    let fx = float_of_int x /. float_of_int (image - 1) *. float_of_int (grid - 1) in
    let y0 = int_of_float fy and x0 = int_of_float fx in
    let y1 = min (grid - 1) (y0 + 1) and x1 = min (grid - 1) (x0 + 1) in
    let dy = fy -. float_of_int y0 and dx = fx -. float_of_int x0 in
    let at yy xx = coarse.((yy * grid) + xx) in
    ((at y0 x0 *. (1.0 -. dy)) +. (at y1 x0 *. dy)) *. (1.0 -. dx)
    +. (((at y0 x1 *. (1.0 -. dy)) +. (at y1 x1 *. dy)) *. dx)
  in
  Array.init (image * image) (fun i -> sample (i / image) (i mod image))

let mnist_like ?(image = 28) ?(channels = 1) ?(n_classes = 10) ~seed ~n () =
  let rng = Rng.create seed in
  let prototypes =
    Array.init n_classes (fun _ -> smooth_prototype rng ~image ~grid:5)
  in
  let d = image * image * channels in
  let features = Tensor.create (Shape.create [ n; image; image; channels ]) in
  let labels = Tensor.create (Shape.create [ n ]) in
  let max_shift = 2 in
  for i = 0 to n - 1 do
    let cls = Rng.int rng n_classes in
    Tensor.set1 labels i (float_of_int cls);
    let sy = Rng.int rng ((2 * max_shift) + 1) - max_shift in
    let sx = Rng.int rng ((2 * max_shift) + 1) - max_shift in
    let proto = prototypes.(cls) in
    let base = i * d in
    for y = 0 to image - 1 do
      for x = 0 to image - 1 do
        let yy = y + sy and xx = x + sx in
        let v =
          if yy >= 0 && yy < image && xx >= 0 && xx < image then
            proto.((yy * image) + xx)
          else 0.0
        in
        let v = v +. (0.3 *. Rng.gaussian rng) in
        let p = base + (((y * image) + x) * channels) in
        for c = 0 to channels - 1 do
          Tensor.set1 features (p + c) v
        done
      done
    done
  done;
  { features; labels; n_classes }

let split ds ~at =
  let n = (Tensor.shape ds.features).(0) in
  if at <= 0 || at >= n then invalid_arg "Synthetic.split: bad split point";
  let item = Shape.drop_dim (Tensor.shape ds.features) 0 in
  let slice t lo len dims =
    Tensor.of_buffer
      (Bigarray.Array1.sub (Tensor.data t) (lo * Shape.numel dims) (len * Shape.numel dims))
      (Shape.concat [| len |] dims)
  in
  let mk lo len =
    {
      features = slice ds.features lo len item;
      labels = slice ds.labels lo len (Shape.create []);
      n_classes = ds.n_classes;
    }
  in
  (mk 0 at, mk at (n - at))

let fill_batch ds ~batch_index ~data ~labels =
  let n = (Tensor.shape ds.features).(0) in
  let batch = (Tensor.shape data).(0) in
  let item = Tensor.numel data / batch in
  let item' = Tensor.numel ds.features / n in
  if item <> item' then
    invalid_arg
      (Printf.sprintf "Synthetic.fill_batch: item size %d vs dataset %d" item item');
  for b = 0 to batch - 1 do
    let src = ((batch_index * batch) + b) mod n in
    for j = 0 to item - 1 do
      Tensor.unsafe_set data ((b * item) + j)
        (Tensor.unsafe_get ds.features ((src * item) + j))
    done;
    Tensor.set1 labels b (Tensor.get1 ds.labels src)
  done
