(* im2col / col2im correctness in the patch-major layout. *)

let mk_spec ?(channels = 2) ?(height = 5) ?(width = 5) ?(kernel = 3) ?(stride = 1)
    ?(pad = 1) () =
  { Im2col.channels; height; width; kernel; stride; pad }

let random_image_hwc rng (s : Im2col.spec) =
  let t = Tensor.create (Shape.create [ s.height; s.width; s.channels ]) in
  Tensor.fill_uniform rng t ~lo:(-1.0) ~hi:1.0;
  t

let test_out_dims () =
  let s = mk_spec () in
  Alcotest.(check int) "oh" 5 (Im2col.out_height s);
  Alcotest.(check int) "ow" 5 (Im2col.out_width s);
  let s2 = mk_spec ~kernel:2 ~stride:2 ~pad:0 ~height:6 ~width:8 () in
  Alcotest.(check int) "oh2" 3 (Im2col.out_height s2);
  Alcotest.(check int) "ow2" 4 (Im2col.out_width s2)

(* Reference: element (c,ky,kx) of the patch at output (oy,ox). *)
let reference_hwc (s : Im2col.spec) img ~c ~ky ~kx ~oy ~ox =
  let iy = (oy * s.stride) + ky - s.pad and ix = (ox * s.stride) + kx - s.pad in
  if iy >= 0 && iy < s.height && ix >= 0 && ix < s.width then
    Tensor.get img [| iy; ix; c |]
  else 0.0

let test_im2col_pm_values () =
  let s = mk_spec ~stride:2 ~pad:0 ~kernel:2 () in
  let rng = Rng.create 4 in
  let img = random_image_hwc rng s in
  let col = Tensor.create (Im2col.col_shape_pm s) in
  Im2col.im2col_pm s ~src:img ~dst:col;
  let ow = Im2col.out_width s in
  for oy = 0 to Im2col.out_height s - 1 do
    for ox = 0 to ow - 1 do
      for ky = 0 to s.kernel - 1 do
        for kx = 0 to s.kernel - 1 do
          for c = 0 to s.channels - 1 do
            let colidx = (((ky * s.kernel) + kx) * s.channels) + c in
            let got = Tensor.get col [| (oy * ow) + ox; colidx |] in
            Alcotest.(check (float 0.0)) "tap"
              (reference_hwc s img ~c ~ky ~kx ~oy ~ox) got
          done
        done
      done
    done
  done

(* Adjointness: <im2col(x), y> = <x, col2im(y)> — the property that makes
   col2im the correct backward operator. *)
let adjoint_check (s : Im2col.spec) seed =
  let rng = Rng.create seed in
  let img_shape = Shape.create [ s.height; s.width; s.channels ] in
  let col_shape = Im2col.col_shape_pm s in
  let x = Tensor.create img_shape in
  Tensor.fill_uniform rng x ~lo:(-1.0) ~hi:1.0;
  let y = Tensor.create col_shape in
  Tensor.fill_uniform rng y ~lo:(-1.0) ~hi:1.0;
  let ax = Tensor.create col_shape in
  Im2col.im2col_pm s ~src:x ~dst:ax;
  let aty = Tensor.create img_shape in
  Im2col.col2im_pm s ~src:y ~dst:aty;
  let lhs = Tensor.dot ax y and rhs = Tensor.dot x aty in
  Float.abs (lhs -. rhs) < 1e-2 *. Float.max 1.0 (Float.abs lhs)

let test_adjoint () =
  List.iter
    (fun (s, seed) ->
      Alcotest.(check bool) "adjoint pm" true (adjoint_check s seed))
    [
      (mk_spec (), 1);
      (mk_spec ~kernel:2 ~stride:2 ~pad:0 (), 2);
      (mk_spec ~channels:1 ~kernel:5 ~pad:2 (), 3);
    ]

let test_shape_validation () =
  let s = mk_spec () in
  let bad = Tensor.create (Shape.create [ 1; 2; 3 ]) in
  let col = Tensor.create (Im2col.col_shape_pm s) in
  Alcotest.(check bool) "raises" true
    (try
       Im2col.im2col_pm s ~src:bad ~dst:col;
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "output dims" `Quick test_out_dims;
    Alcotest.test_case "im2col_pm values" `Quick test_im2col_pm_values;
    Alcotest.test_case "col2im adjoint" `Quick test_adjoint;
    Alcotest.test_case "shape validation" `Quick test_shape_validation;
  ]
