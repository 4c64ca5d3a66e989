open Baseline_desc

type layer_state = {
  layer : Baseline_desc.layer;
  value : Tensor.t;
  grad : Tensor.t;
  src_value : Tensor.t option;
  src_grad : Tensor.t option;
  weights : Tensor.t option;
  bias : Tensor.t option;
  wgrad : Tensor.t option;
  bgrad : Tensor.t option;
  col : Tensor.t option;  (* conv im2col workspace, reused per item *)
}

type t = {
  pool : Buffer_pool.t;
  layers : layer_state array;
  batch : int;
}

let item_numel t = Tensor.numel t / (Tensor.shape t).(0)

let of_net ?params_from net =
  let batch = Net.batch_size net in
  let pool = Buffer_pool.create () in
  List.iter
    (fun (name, item_shape) ->
      ignore (Buffer_pool.alloc pool name (Shape.create (batch :: item_shape))))
    (Net.externals net);
  let layers = Baseline_desc.classify net in
  let states =
    List.map
      (fun (l : Baseline_desc.layer) ->
        let ens = l.ens.Ensemble.name in
        let shape = Shape.concat [| batch |] l.ens.Ensemble.shape in
        let value = Buffer_pool.alloc pool (Layout.value_buf ens) shape in
        let grad = Buffer_pool.alloc pool (Layout.grad_buf ens) shape in
        let src_value =
          Option.map
            (fun (s : Ensemble.t) -> Buffer_pool.lookup pool (Layout.value_buf s.name))
            l.source
        in
        let src_grad =
          Option.map
            (fun (s : Ensemble.t) -> Buffer_pool.lookup pool (Layout.grad_buf s.name))
            l.source
        in
        let param which shape_fallback =
          match params_from with
          | Some exec -> Tensor.copy (Executor.lookup exec (Layout.field_buf ens which))
          | None ->
              let t = Tensor.create shape_fallback in
              let rng = Rng.create (Hashtbl.hash (ens, which)) in
              (match l.desc with
              | Lconv c ->
                  let fan = c.kernel * c.kernel * c.in_c in
                  if String.equal which "weights" then
                    Tensor.fill_xavier rng t ~fan_in:fan
                      ~fan_out:(c.kernel * c.kernel * c.filters)
              | Lfc f ->
                  if String.equal which "weights" then
                    Tensor.fill_xavier rng t ~fan_in:f.n_in ~fan_out:f.n_out
              | Ldata | Lact _ | Lpool _ | Lnorm _ -> ());
              t
        in
        let weights, bias, wgrad, bgrad, col =
          match l.desc with
          | Lconv c ->
              let len = c.kernel * c.kernel * c.in_c in
              let w = param "weights" (Shape.create [ c.filters; len ]) in
              let b = param "bias" (Shape.create [ c.filters; 1 ]) in
              ( Some w,
                Some b,
                Some (Tensor.create (Tensor.shape w)),
                Some (Tensor.create (Tensor.shape b)),
                Some (Tensor.create (Shape.create [ c.out_h * c.out_w; len ])) )
          | Lfc f ->
              let w = param "weights" (Shape.create [ f.n_out; f.n_in ]) in
              let b = param "bias" (Shape.create [ f.n_out; 1 ]) in
              ( Some w,
                Some b,
                Some (Tensor.create (Tensor.shape w)),
                Some (Tensor.create (Tensor.shape b)),
                None )
          | Ldata | Lact _ | Lpool _ | Lnorm _ -> (None, None, None, None, None)
        in
        let adopt which topt =
          Option.iter (fun tt -> Buffer_pool.adopt pool which tt) topt
        in
        adopt (Layout.field_buf ens "weights") weights;
        adopt (Layout.field_buf ens "bias") bias;
        adopt (Layout.grad_field_buf ens "weights") wgrad;
        adopt (Layout.grad_field_buf ens "bias") bgrad;
        { layer = l; value; grad; src_value; src_grad; weights; bias; wgrad; bgrad; col })
      layers
  in
  { pool; layers = Array.of_list states; batch }

let batch_size t = t.batch
let lookup t name = Buffer_pool.lookup t.pool name

let conv_im2col_spec (c : conv_spec) =
  {
    Im2col.channels = c.in_c;
    height = c.in_h;
    width = c.in_w;
    kernel = c.kernel;
    stride = c.stride;
    pad = c.pad;
  }

let add_bias ~out ~bias ~rows ~channels ~off =
  for r = 0 to rows - 1 do
    let base = off + (r * channels) in
    for f = 0 to channels - 1 do
      Tensor.unsafe_set out (base + f)
        (Tensor.unsafe_get out (base + f) +. Tensor.unsafe_get bias f)
    done
  done

let forward_layer t st =
  match st.layer.desc with
  | Ldata -> ()
  | Lconv c ->
      let src = Option.get st.src_value in
      let w = Option.get st.weights and b = Option.get st.bias in
      let col = Option.get st.col in
      let spec = conv_im2col_spec c in
      let spatial = c.out_h * c.out_w in
      let len = c.kernel * c.kernel * c.in_c in
      for item = 0 to t.batch - 1 do
        Im2col.im2col_pm spec ~src:(Tensor.sub_left src item) ~dst:col;
        let off_c = item * spatial * c.filters in
        Blas.gemm ~transa:false ~transb:true ~m:spatial ~n:c.filters ~k:len
          ~beta:0.0 ~a:(Tensor.data col) ~b:(Tensor.data w) ~c:(Tensor.data st.value)
          ~off_c ();
        add_bias ~out:st.value ~bias:b ~rows:spatial ~channels:c.filters ~off:off_c
      done
  | Lfc f ->
      let src = Option.get st.src_value in
      let w = Option.get st.weights and b = Option.get st.bias in
      Blas.gemm ~transa:false ~transb:true ~m:t.batch ~n:f.n_out ~k:f.n_in
        ~beta:0.0 ~a:(Tensor.data src) ~b:(Tensor.data w) ~c:(Tensor.data st.value)
        ();
      add_bias ~out:st.value ~bias:b ~rows:t.batch ~channels:f.n_out ~off:0
  | Lact kind ->
      let src = Option.get st.src_value in
      let n = Tensor.numel src in
      (match kind with
      | `Relu ->
          for i = 0 to n - 1 do
            let v = Tensor.unsafe_get src i in
            Tensor.unsafe_set st.value i (if v > 0.0 then v else 0.0)
          done
      | `Sigmoid ->
          for i = 0 to n - 1 do
            Tensor.unsafe_set st.value i
              (1.0 /. (1.0 +. exp (-.Tensor.unsafe_get src i)))
          done
      | `Tanh ->
          for i = 0 to n - 1 do
            Tensor.unsafe_set st.value i (tanh (Tensor.unsafe_get src i))
          done)
  | Lpool p ->
      let src = Option.get st.src_value in
      let src_items = item_numel src in
      let dst_items = item_numel st.value in
      for item = 0 to t.batch - 1 do
        let so = item * src_items and d_o = item * dst_items in
        for oy = 0 to p.poh - 1 do
          for ox = 0 to p.pow_ - 1 do
            for c = 0 to p.pc - 1 do
              let acc = ref (match p.pkind with `Max -> neg_infinity | `Avg -> 0.0) in
              for ky = 0 to p.pkernel - 1 do
                for kx = 0 to p.pkernel - 1 do
                  let iy = (oy * p.pstride) + ky and ix = (ox * p.pstride) + kx in
                  let v =
                    Tensor.unsafe_get src (so + (((iy * p.pw) + ix) * p.pc) + c)
                  in
                  match p.pkind with
                  | `Max -> if v > !acc then acc := v
                  | `Avg -> acc := !acc +. v
                done
              done;
              let v =
                match p.pkind with
                | `Max -> !acc
                | `Avg -> !acc /. float_of_int (p.pkernel * p.pkernel)
              in
              Tensor.unsafe_set st.value (d_o + (((oy * p.pow_) + ox) * p.pc) + c) v
            done
          done
        done
      done
  | Lnorm ops ->
      let bufs =
        {
          Ensemble.value = Layout.value_buf st.layer.ens.Ensemble.name;
          grad = Layout.grad_buf st.layer.ens.Ensemble.name;
          src_value =
            Layout.value_buf (Option.get st.layer.source).Ensemble.name;
          src_grad =
            Some (Layout.grad_buf (Option.get st.layer.source).Ensemble.name);
        }
      in
      let lookup = Buffer_pool.lookup t.pool in
      if ops.Ensemble.per_item then
        for item = 0 to t.batch - 1 do
          ops.Ensemble.fwd ~bufs ~lookup ~item
        done
      else ops.Ensemble.fwd ~bufs ~lookup ~item:0

let backward_layer t st =
  match st.layer.desc with
  | Ldata -> ()
  | Lconv c ->
      let src = Option.get st.src_value in
      let src_g = Option.get st.src_grad in
      let w = Option.get st.weights in
      let wg = Option.get st.wgrad and bg = Option.get st.bgrad in
      let col = Option.get st.col in
      let spec = conv_im2col_spec c in
      let spatial = c.out_h * c.out_w in
      let len = c.kernel * c.kernel * c.in_c in
      let dcol = Tensor.create (Tensor.shape col) in
      for item = 0 to t.batch - 1 do
        let off_g = item * spatial * c.filters in
        (* Input gradient: dcol = G x W, scattered back with col2im. *)
        Blas.gemm ~transa:false ~transb:false ~m:spatial ~n:len ~k:c.filters
          ~beta:0.0 ~a:(Tensor.data st.grad) ~off_a:off_g ~b:(Tensor.data w)
          ~c:(Tensor.data dcol) ();
        Im2col.col2im_pm spec ~src:dcol ~dst:(Tensor.sub_left src_g item);
        (* Weight gradient: dW += G^T x col. *)
        Im2col.im2col_pm spec ~src:(Tensor.sub_left src item) ~dst:col;
        Blas.gemm ~transa:true ~transb:false ~m:c.filters ~n:len ~k:spatial
          ~a:(Tensor.data st.grad) ~off_a:off_g ~b:(Tensor.data col)
          ~c:(Tensor.data wg) ();
        (* Bias gradient. *)
        for r = 0 to spatial - 1 do
          for f = 0 to c.filters - 1 do
            Tensor.unsafe_set bg f
              (Tensor.unsafe_get bg f
              +. Tensor.unsafe_get st.grad (off_g + (r * c.filters) + f))
          done
        done
      done
  | Lfc f ->
      let src = Option.get st.src_value in
      let src_g = Option.get st.src_grad in
      let w = Option.get st.weights in
      let wg = Option.get st.wgrad and bg = Option.get st.bgrad in
      Blas.gemm ~transa:false ~transb:false ~m:t.batch ~n:f.n_in ~k:f.n_out
        ~a:(Tensor.data st.grad) ~b:(Tensor.data w) ~c:(Tensor.data src_g) ();
      Blas.gemm ~transa:true ~transb:false ~m:f.n_out ~n:f.n_in ~k:t.batch
        ~a:(Tensor.data st.grad) ~b:(Tensor.data src) ~c:(Tensor.data wg) ();
      for r = 0 to t.batch - 1 do
        for o = 0 to f.n_out - 1 do
          Tensor.unsafe_set bg o
            (Tensor.unsafe_get bg o +. Tensor.unsafe_get st.grad ((r * f.n_out) + o))
        done
      done
  | Lact kind ->
      let src = Option.get st.src_value in
      let src_g = Option.get st.src_grad in
      let n = Tensor.numel src in
      for i = 0 to n - 1 do
        let g = Tensor.unsafe_get st.grad i in
        let d =
          match kind with
          | `Relu -> if Tensor.unsafe_get src i > 0.0 then g else 0.0
          | `Sigmoid ->
              let y = Tensor.unsafe_get st.value i in
              g *. y *. (1.0 -. y)
          | `Tanh ->
              let y = Tensor.unsafe_get st.value i in
              g *. (1.0 -. (y *. y))
        in
        Tensor.unsafe_set src_g i (Tensor.unsafe_get src_g i +. d)
      done
  | Lpool p ->
      let src = Option.get st.src_value in
      let src_g = Option.get st.src_grad in
      let src_items = item_numel src in
      let dst_items = item_numel st.value in
      for item = 0 to t.batch - 1 do
        let so = item * src_items and d_o = item * dst_items in
        for oy = 0 to p.poh - 1 do
          for ox = 0 to p.pow_ - 1 do
            for c = 0 to p.pc - 1 do
              let out_idx = d_o + (((oy * p.pow_) + ox) * p.pc) + c in
              let g = Tensor.unsafe_get st.grad out_idx in
              (match p.pkind with
              | `Max ->
                  let v = Tensor.unsafe_get st.value out_idx in
                  for ky = 0 to p.pkernel - 1 do
                    for kx = 0 to p.pkernel - 1 do
                      let iy = (oy * p.pstride) + ky and ix = (ox * p.pstride) + kx in
                      let idx = so + (((iy * p.pw) + ix) * p.pc) + c in
                      if Tensor.unsafe_get src idx = v then
                        Tensor.unsafe_set src_g idx (Tensor.unsafe_get src_g idx +. g)
                    done
                  done
              | `Avg ->
                  let share = g /. float_of_int (p.pkernel * p.pkernel) in
                  for ky = 0 to p.pkernel - 1 do
                    for kx = 0 to p.pkernel - 1 do
                      let iy = (oy * p.pstride) + ky and ix = (ox * p.pstride) + kx in
                      let idx = so + (((iy * p.pw) + ix) * p.pc) + c in
                      Tensor.unsafe_set src_g idx (Tensor.unsafe_get src_g idx +. share)
                    done
                  done)
            done
          done
        done
      done
  | Lnorm ops -> (
      match ops.Ensemble.bwd with
      | None -> ()
      | Some bwd ->
          let bufs =
            {
              Ensemble.value = Layout.value_buf st.layer.ens.Ensemble.name;
              grad = Layout.grad_buf st.layer.ens.Ensemble.name;
              src_value =
                Layout.value_buf (Option.get st.layer.source).Ensemble.name;
              src_grad =
                Some (Layout.grad_buf (Option.get st.layer.source).Ensemble.name);
            }
          in
          let lookup = Buffer_pool.lookup t.pool in
          if ops.Ensemble.per_item then
            for item = 0 to t.batch - 1 do
              bwd ~bufs ~lookup ~item
            done
          else bwd ~bufs ~lookup ~item:0)

let forward t = Array.iter (forward_layer t) t.layers

let zero_grads t =
  Array.iter
    (fun st ->
      Tensor.fill st.grad 0.0;
      Option.iter (fun g -> Tensor.fill g 0.0) st.wgrad;
      Option.iter (fun g -> Tensor.fill g 0.0) st.bgrad)
    t.layers

let backward t =
  zero_grads t;
  for i = Array.length t.layers - 1 downto 0 do
    backward_layer t t.layers.(i)
  done

let timed label f =
  let t0 = Unix.gettimeofday () in
  f ();
  (label, Unix.gettimeofday () -. t0)

let forward_timed t =
  Array.to_list
    (Array.map
       (fun st -> timed st.layer.ens.Ensemble.name (fun () -> forward_layer t st))
       t.layers)

let backward_timed t =
  zero_grads t;
  let acc = ref [] in
  for i = Array.length t.layers - 1 downto 0 do
    let st = t.layers.(i) in
    acc := timed st.layer.ens.Ensemble.name (fun () -> backward_layer t st) :: !acc
  done;
  !acc
