type spec = {
  channels : int;
  height : int;
  width : int;
  kernel : int;
  stride : int;
  pad : int;
}

let out_dim ~size ~kernel ~stride ~pad = ((size + (2 * pad) - kernel) / stride) + 1

let out_height s = out_dim ~size:s.height ~kernel:s.kernel ~stride:s.stride ~pad:s.pad
let out_width s = out_dim ~size:s.width ~kernel:s.kernel ~stride:s.stride ~pad:s.pad

let col_shape_pm s =
  Shape.create [ out_height s * out_width s; s.kernel * s.kernel * s.channels ]

let check_shapes_pm s ~img ~col =
  let expect_img = Shape.create [ s.height; s.width; s.channels ] in
  if not (Shape.equal (Tensor.shape img) expect_img) then
    invalid_arg
      (Printf.sprintf "Im2col(pm): image shape %s, expected %s"
         (Shape.to_string (Tensor.shape img))
         (Shape.to_string expect_img));
  if not (Shape.equal (Tensor.shape col) (col_shape_pm s)) then
    invalid_arg
      (Printf.sprintf "Im2col(pm): col shape %s, expected %s"
         (Shape.to_string (Tensor.shape col))
         (Shape.to_string (col_shape_pm s)))

let iter_taps_pm s f =
  let oh = out_height s and ow = out_width s in
  let len = s.kernel * s.kernel * s.channels in
  for oy = 0 to oh - 1 do
    for ox = 0 to ow - 1 do
      let row = ((oy * ow) + ox) * len in
      for ky = 0 to s.kernel - 1 do
        let iy = (oy * s.stride) + ky - s.pad in
        for kx = 0 to s.kernel - 1 do
          let ix = (ox * s.stride) + kx - s.pad in
          let base_col = row + (((ky * s.kernel) + kx) * s.channels) in
          let in_bounds = iy >= 0 && iy < s.height && ix >= 0 && ix < s.width in
          let base_img = (((iy * s.width) + ix) * s.channels) in
          for c = 0 to s.channels - 1 do
            f ~col_idx:(base_col + c) ~img_idx:(base_img + c) ~in_bounds
          done
        done
      done
    done
  done

let im2col_pm s ~src ~dst =
  check_shapes_pm s ~img:src ~col:dst;
  iter_taps_pm s (fun ~col_idx ~img_idx ~in_bounds ->
      let v = if in_bounds then Tensor.unsafe_get src img_idx else 0.0 in
      Tensor.unsafe_set dst col_idx v)

let col2im_pm s ~src ~dst =
  check_shapes_pm s ~img:dst ~col:src;
  iter_taps_pm s (fun ~col_idx ~img_idx ~in_bounds ->
      if in_bounds then
        Tensor.unsafe_set dst img_idx
          (Tensor.unsafe_get dst img_idx +. Tensor.unsafe_get src col_idx))
