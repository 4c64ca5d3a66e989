(* The representation is kind-polymorphic: ['a] is the OCaml element
   type, ['b] the Bigarray element representation (see
   {!Precision.kind}). [t] pins the historical f32 case so the rest of
   the codebase reads exactly as before; packed precisions travel as
   {!store} values. *)
type ('a, 'b) gen = {
  data : ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t;
  shape : Shape.t;
}

type buffer =
  (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = (float, Bigarray.float32_elt) gen

external buffer_get : buffer -> int -> float = "%caml_ba_unsafe_ref_1"
external buffer_set : buffer -> int -> float -> unit = "%caml_ba_unsafe_set_1"

type buffer_i8 =
  (int, Bigarray.int8_signed_elt, Bigarray.c_layout) Bigarray.Array1.t

external buffer_get_i8 : buffer_i8 -> int -> int = "%caml_ba_unsafe_ref_1"

external buffer_set_i8 : buffer_i8 -> int -> int -> unit
  = "%caml_ba_unsafe_set_1"

let create shape =
  let n = Shape.numel shape in
  let data = Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout n in
  Bigarray.Array1.fill data 0.0;
  { data; shape }

let of_buffer data shape =
  if Bigarray.Array1.dim data <> Shape.numel shape then
    invalid_arg
      (Printf.sprintf "Tensor.of_buffer: buffer size %d <> shape %s"
         (Bigarray.Array1.dim data) (Shape.to_string shape));
  { data; shape }

let scalar v =
  let t = create [||] in
  Bigarray.Array1.set t.data 0 v;
  t

let shape t = t.shape
let numel t = Shape.numel t.shape
let data t = t.data

let of_array shape a =
  if Array.length a <> Shape.numel shape then
    invalid_arg "Tensor.of_array: element count mismatch";
  let t = create shape in
  Array.iteri (fun i v -> Bigarray.Array1.set t.data i v) a;
  t

(* The [(t : t)] annotations pin the element kind, so each access
   compiles to an inline load or store rather than the generic
   [caml_ba_get_1]/[caml_ba_set_1] C call. *)
let to_array (t : t) =
  Array.init (numel t) (fun i -> Bigarray.Array1.get t.data i)

let get (t : t) idx = Bigarray.Array1.get t.data (Shape.ravel t.shape idx)
let set (t : t) idx v = Bigarray.Array1.set t.data (Shape.ravel t.shape idx) v

let get1 (t : t) i =
  if i < 0 || i >= numel t then invalid_arg "Tensor.get1: out of bounds";
  Bigarray.Array1.get t.data i

let set1 (t : t) i v =
  if i < 0 || i >= numel t then invalid_arg "Tensor.set1: out of bounds";
  Bigarray.Array1.set t.data i v

let unsafe_get (t : t) i = buffer_get t.data i
let unsafe_set (t : t) i v = buffer_set t.data i v

let fill t v = Bigarray.Array1.fill t.data v

let copy t =
  let t' = create t.shape in
  Bigarray.Array1.blit t.data t'.data;
  t'

let blit ~src ~dst =
  if not (Shape.equal src.shape dst.shape) then
    invalid_arg "Tensor.blit: shape mismatch";
  Bigarray.Array1.blit src.data dst.data

let reshape t shape =
  if Shape.numel shape <> numel t then
    invalid_arg
      (Printf.sprintf "Tensor.reshape: %s -> %s changes element count"
         (Shape.to_string t.shape) (Shape.to_string shape));
  { data = t.data; shape }

let sub_left t i =
  if Shape.rank t.shape = 0 then invalid_arg "Tensor.sub_left: scalar";
  let d0 = t.shape.(0) in
  if i < 0 || i >= d0 then invalid_arg "Tensor.sub_left: out of bounds";
  let rest = Shape.drop_dim t.shape 0 in
  let n = Shape.numel rest in
  { data = Bigarray.Array1.sub t.data (i * n) n; shape = rest }

let init shape f =
  let t = create shape in
  Shape.iter shape (fun idx -> set t idx (f idx));
  t

let map f t =
  let t' = create t.shape in
  for i = 0 to numel t - 1 do
    unsafe_set t' i (f (unsafe_get t i))
  done;
  t'

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg "Tensor.map2: shape mismatch";
  let t' = create a.shape in
  for i = 0 to numel a - 1 do
    unsafe_set t' i (f (unsafe_get a i) (unsafe_get b i))
  done;
  t'

let iteri f t =
  for i = 0 to numel t - 1 do
    f i (unsafe_get t i)
  done

let add_inplace dst src =
  if not (Shape.equal dst.shape src.shape) then
    invalid_arg "Tensor.add_inplace: shape mismatch";
  for i = 0 to numel dst - 1 do
    unsafe_set dst i (unsafe_get dst i +. unsafe_get src i)
  done

let scale_inplace t alpha =
  for i = 0 to numel t - 1 do
    unsafe_set t i (alpha *. unsafe_get t i)
  done

let axpy ~alpha ~x ~y =
  if not (Shape.equal x.shape y.shape) then
    invalid_arg "Tensor.axpy: shape mismatch";
  for i = 0 to numel x - 1 do
    unsafe_set y i ((alpha *. unsafe_get x i) +. unsafe_get y i)
  done

let sum t =
  let acc = ref 0.0 in
  for i = 0 to numel t - 1 do
    acc := !acc +. unsafe_get t i
  done;
  !acc

let max_value t =
  if numel t = 0 then invalid_arg "Tensor.max_value: empty tensor";
  let m = ref (unsafe_get t 0) in
  for i = 1 to numel t - 1 do
    let v = unsafe_get t i in
    if v > !m then m := v
  done;
  !m

let argmax t =
  if numel t = 0 then invalid_arg "Tensor.argmax: empty tensor";
  let m = ref (unsafe_get t 0) and mi = ref 0 in
  for i = 1 to numel t - 1 do
    let v = unsafe_get t i in
    if v > !m then begin
      m := v;
      mi := i
    end
  done;
  !mi

let dot a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg "Tensor.dot: shape mismatch";
  let acc = ref 0.0 in
  for i = 0 to numel a - 1 do
    acc := !acc +. (unsafe_get a i *. unsafe_get b i)
  done;
  !acc

let l2_norm t = sqrt (dot t t)

let max_abs_diff a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg "Tensor.max_abs_diff: shape mismatch";
  let m = ref 0.0 in
  for i = 0 to numel a - 1 do
    let d = Float.abs (unsafe_get a i -. unsafe_get b i) in
    if d > !m then m := d
  done;
  !m

let approx_equal ?(tol = 1e-5) a b =
  if not (Shape.equal a.shape b.shape) then false
  else begin
    let ok = ref true in
    for i = 0 to numel a - 1 do
      let x = unsafe_get a i and y = unsafe_get b i in
      let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
      if Float.abs (x -. y) > tol *. scale then ok := false
    done;
    !ok
  end

let fill_uniform rng t ~lo ~hi =
  for i = 0 to numel t - 1 do
    unsafe_set t i (Rng.uniform rng ~lo ~hi)
  done

let fill_gaussian rng t ~mean ~sigma =
  for i = 0 to numel t - 1 do
    unsafe_set t i (Rng.gaussian_scaled rng ~mean ~sigma)
  done

let fill_xavier rng t ~fan_in ~fan_out =
  for i = 0 to numel t - 1 do
    unsafe_set t i (Rng.xavier rng ~fan_in ~fan_out)
  done

(* ------------------------------------------------------------------ *)
(* Packed stores: a tensor of any storage precision                    *)
(* ------------------------------------------------------------------ *)

type store =
  | Store : ('a, 'b) Precision.kind * Precision.qparams * ('a, 'b) gen -> store

let encode : type a b. (a, b) Precision.kind -> Precision.qparams -> float -> a
    =
 fun k qp v ->
  match k with
  | Precision.F32 -> v
  | Precision.I8 -> Precision.quantize qp v

let gen_create : type a b. (a, b) Precision.kind -> Shape.t -> (a, b) gen =
 fun k shape ->
  let n = Shape.numel shape in
  let data =
    Bigarray.Array1.create (Precision.bigarray_kind k) Bigarray.c_layout n
  in
  let zero : a =
    match k with
    | Precision.F32 -> 0.0
    | Precision.I8 -> 0
  in
  Bigarray.Array1.fill data zero;
  { data; shape }

let store_of_f32 t = Store (Precision.F32, Precision.qid, t)

let store_fill (Store (k, qp, g)) v =
  Bigarray.Array1.fill g.data (encode k qp v)

let store_create ?(qparams = Precision.qid) (Precision.Any k) shape =
  Store (k, qparams, gen_create k shape)

let store_shape (Store (_, _, g)) = g.shape
let store_numel (Store (_, _, g)) = Shape.numel g.shape
let store_kind (Store (k, _, _)) = Precision.Any k
let store_qparams (Store (_, qp, _)) = qp
let store_elem_bytes st = Precision.any_bytes (store_kind st)
let store_bytes st = store_elem_bytes st * store_numel st

let store_f32_data (Store (k, _, g)) : buffer option =
  match k with Precision.F32 -> Some g.data | _ -> None

let store_f32_opt (Store (k, _, g)) : t option =
  match k with Precision.F32 -> Some g | _ -> None

(* Identity of the backing storage, for aliasing analyses: two stores
   alias iff their data blocks are the same value. *)
let store_data_id (Store (_, _, g)) = Obj.repr g.data

(* Unsafe decoded accessors, specialized per kind once so the per-
   element work is a load (plus a scale multiply). *)
let store_reader (Store (k, qp, g)) : int -> float =
  let data = g.data in
  match k with
  | Precision.F32 -> fun i -> Bigarray.Array1.unsafe_get data i
  | Precision.I8 ->
      let s = qp.Precision.scale in
      fun i -> s *. float_of_int (Bigarray.Array1.unsafe_get data i)

let store_writer (Store (k, qp, g)) : int -> float -> unit =
  let data = g.data in
  match k with
  | Precision.F32 -> fun i v -> Bigarray.Array1.unsafe_set data i v
  | Precision.I8 ->
      fun i v -> Bigarray.Array1.unsafe_set data i (Precision.quantize qp v)

let store_get1 st i =
  if i < 0 || i >= store_numel st then invalid_arg "Tensor.store_get1: out of bounds";
  store_reader st i

let store_set1 st i v =
  if i < 0 || i >= store_numel st then invalid_arg "Tensor.store_set1: out of bounds";
  store_writer st i v

let store_reshape (Store (k, qp, g)) shape =
  if Shape.numel shape <> Shape.numel g.shape then
    invalid_arg
      (Printf.sprintf "Tensor.store_reshape: %s -> %s changes element count"
         (Shape.to_string g.shape) (Shape.to_string shape));
  Store (k, qp, { g with shape })

let store_to_f32 st =
  let t = create (store_shape st) in
  let rd = store_reader st in
  for i = 0 to numel t - 1 do
    unsafe_set t i (rd i)
  done;
  t

let store_blit_from_f32 ~src ~dst =
  if not (Shape.equal src.shape (store_shape dst)) then
    invalid_arg "Tensor.store_blit_from_f32: shape mismatch";
  let wr = store_writer dst in
  for i = 0 to numel src - 1 do
    wr i (unsafe_get src i)
  done

let store_absmax st =
  let rd = store_reader st in
  let m = ref 0.0 in
  for i = 0 to store_numel st - 1 do
    let a = Float.abs (rd i) in
    (* NaN fails the first test, an infinity the second. *)
    if a > !m && a < infinity then m := a
  done;
  !m
