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
}

type t = { pool : Buffer_pool.t; layers : layer_state array; batch : int }

let of_net ?params_from net =
  let batch = Net.batch_size net in
  let pool = Buffer_pool.create () in
  List.iter
    (fun (name, item_shape) ->
      ignore (Buffer_pool.alloc pool name (Shape.create (batch :: item_shape))))
    (Net.externals net);
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
        let copy_param which shape_fallback =
          match params_from with
          | Some exec -> Tensor.copy (Executor.lookup exec (Layout.field_buf ens which))
          | None -> Tensor.create shape_fallback
        in
        let weights, bias, wgrad, bgrad =
          match l.desc with
          | Lconv c ->
              let len = c.kernel * c.kernel * c.in_c in
              let w = copy_param "weights" (Shape.create [ c.filters; len ]) in
              let b = copy_param "bias" (Shape.create [ c.filters; 1 ]) in
              (Some w, Some b, Some (Tensor.create (Tensor.shape w)),
               Some (Tensor.create (Tensor.shape b)))
          | Lfc f ->
              let w = copy_param "weights" (Shape.create [ f.n_out; f.n_in ]) in
              let b = copy_param "bias" (Shape.create [ f.n_out; 1 ]) in
              (Some w, Some b, Some (Tensor.create (Tensor.shape w)),
               Some (Tensor.create (Tensor.shape b)))
          | Ldata | Lact _ | Lpool _ | Lnorm _ -> (None, None, None, None)
        in
        let adopt which topt =
          Option.iter (fun tt -> Buffer_pool.adopt pool which tt) topt
        in
        let ens_name = ens in
        adopt (Layout.field_buf ens_name "weights") weights;
        adopt (Layout.field_buf ens_name "bias") bias;
        adopt (Layout.grad_field_buf ens_name "weights") wgrad;
        adopt (Layout.grad_field_buf ens_name "bias") bgrad;
        { layer = l; value; grad; src_value; src_grad; weights; bias; wgrad; bgrad })
      (Baseline_desc.classify net)
  in
  { pool; layers = Array.of_list states; batch }

let batch_size t = t.batch
let lookup t name = Buffer_pool.lookup t.pool name

(* Bounds-checked multi-index accesses, allocating the index array per
   element — the cost profile of a dynamic language's checked arrays. *)
let at4 t a b c d = Tensor.get t [| a; b; c; d |]
let set4 t a b c d v = Tensor.set t [| a; b; c; d |] v
let at2 t a b = Tensor.get t [| a; b |]

let forward_layer t st =
  match st.layer.desc with
  | Ldata -> ()
  | Lconv c ->
      let src = Option.get st.src_value in
      let w = Option.get st.weights and b = Option.get st.bias in
      for item = 0 to t.batch - 1 do
        for oy = 0 to c.out_h - 1 do
          for ox = 0 to c.out_w - 1 do
            for f = 0 to c.filters - 1 do
              let acc = ref (at2 b f 0) in
              for ky = 0 to c.kernel - 1 do
                for kx = 0 to c.kernel - 1 do
                  let iy = (oy * c.stride) + ky - c.pad in
                  let ix = (ox * c.stride) + kx - c.pad in
                  if iy >= 0 && iy < c.in_h && ix >= 0 && ix < c.in_w then
                    for ch = 0 to c.in_c - 1 do
                      let wi = (((ky * c.kernel) + kx) * c.in_c) + ch in
                      acc :=
                        !acc +. (at4 src item iy ix ch *. at2 w f wi)
                    done
                done
              done;
              set4 st.value item oy ox f !acc
            done
          done
        done
      done
  | Lfc f ->
      let src = Option.get st.src_value in
      let w = Option.get st.weights and b = Option.get st.bias in
      let src2 = Tensor.reshape src (Shape.create [ t.batch; f.n_in ]) in
      (* Unblocked triple loop, the "plain Julia" matmul path. *)
      Blas.gemm_naive ~transa:false ~transb:true ~m:t.batch ~n:f.n_out ~k:f.n_in
        ~beta:0.0 ~a:(Tensor.data src2) ~b:(Tensor.data w) ~c:(Tensor.data st.value)
        ();
      for r = 0 to t.batch - 1 do
        for o = 0 to f.n_out - 1 do
          Tensor.set st.value [| r; o |]
            (at2 st.value r o +. at2 b o 0)
        done
      done
  | Lact kind ->
      let src = Option.get st.src_value in
      let n = Tensor.numel src in
      for i = 0 to n - 1 do
        let v = Tensor.get1 src i in
        let y =
          match kind with
          | `Relu -> if v > 0.0 then v else 0.0
          | `Sigmoid -> 1.0 /. (1.0 +. exp (-.v))
          | `Tanh -> tanh v
        in
        Tensor.set1 st.value i y
      done
  | Lpool p ->
      let src = Option.get st.src_value in
      for item = 0 to t.batch - 1 do
        for oy = 0 to p.poh - 1 do
          for ox = 0 to p.pow_ - 1 do
            for c = 0 to p.pc - 1 do
              let acc = ref (match p.pkind with `Max -> neg_infinity | `Avg -> 0.0) in
              for ky = 0 to p.pkernel - 1 do
                for kx = 0 to p.pkernel - 1 do
                  let v = at4 src item ((oy * p.pstride) + ky) ((ox * p.pstride) + kx) c in
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
              set4 st.value item oy ox c v
            done
          done
        done
      done
  | Lnorm ops ->
      let bufs =
        {
          Ensemble.value = Layout.value_buf st.layer.ens.Ensemble.name;
          grad = Layout.grad_buf st.layer.ens.Ensemble.name;
          src_value = Layout.value_buf (Option.get st.layer.source).Ensemble.name;
          src_grad = Some (Layout.grad_buf (Option.get st.layer.source).Ensemble.name);
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
      for item = 0 to t.batch - 1 do
        for oy = 0 to c.out_h - 1 do
          for ox = 0 to c.out_w - 1 do
            for f = 0 to c.filters - 1 do
              let g = at4 st.grad item oy ox f in
              Tensor.set bg [| f; 0 |] (at2 bg f 0 +. g);
              for ky = 0 to c.kernel - 1 do
                for kx = 0 to c.kernel - 1 do
                  let iy = (oy * c.stride) + ky - c.pad in
                  let ix = (ox * c.stride) + kx - c.pad in
                  if iy >= 0 && iy < c.in_h && ix >= 0 && ix < c.in_w then
                    for ch = 0 to c.in_c - 1 do
                      let wi = (((ky * c.kernel) + kx) * c.in_c) + ch in
                      set4 src_g item iy ix ch
                        (at4 src_g item iy ix ch +. (g *. at2 w f wi));
                      Tensor.set wg [| f; wi |]
                        (at2 wg f wi +. (g *. at4 src item iy ix ch))
                    done
                done
              done
            done
          done
        done
      done
  | Lfc f ->
      let src = Option.get st.src_value in
      let src_g = Option.get st.src_grad in
      let w = Option.get st.weights in
      let wg = Option.get st.wgrad and bg = Option.get st.bgrad in
      let src2 = Tensor.reshape src (Shape.create [ t.batch; f.n_in ]) in
      let srcg2 = Tensor.reshape src_g (Shape.create [ t.batch; f.n_in ]) in
      Blas.gemm_naive ~transa:false ~transb:false ~m:t.batch ~n:f.n_in ~k:f.n_out
        ~a:(Tensor.data st.grad) ~b:(Tensor.data w) ~c:(Tensor.data srcg2) ();
      Blas.gemm_naive ~transa:true ~transb:false ~m:f.n_out ~n:f.n_in ~k:t.batch
        ~a:(Tensor.data st.grad) ~b:(Tensor.data src2) ~c:(Tensor.data wg) ();
      for r = 0 to t.batch - 1 do
        for o = 0 to f.n_out - 1 do
          Tensor.set bg [| o; 0 |] (at2 bg o 0 +. at2 st.grad r o)
        done
      done
  | Lact kind ->
      let src = Option.get st.src_value in
      let src_g = Option.get st.src_grad in
      for i = 0 to Tensor.numel src - 1 do
        let g = Tensor.get1 st.grad i in
        let d =
          match kind with
          | `Relu -> if Tensor.get1 src i > 0.0 then g else 0.0
          | `Sigmoid ->
              let y = Tensor.get1 st.value i in
              g *. y *. (1.0 -. y)
          | `Tanh ->
              let y = Tensor.get1 st.value i in
              g *. (1.0 -. (y *. y))
        in
        Tensor.set1 src_g i (Tensor.get1 src_g i +. d)
      done
  | Lpool p ->
      let src = Option.get st.src_value in
      let src_g = Option.get st.src_grad in
      for item = 0 to t.batch - 1 do
        for oy = 0 to p.poh - 1 do
          for ox = 0 to p.pow_ - 1 do
            for c = 0 to p.pc - 1 do
              let g = at4 st.grad item oy ox c in
              (match p.pkind with
              | `Max ->
                  let v = at4 st.value item oy ox c in
                  for ky = 0 to p.pkernel - 1 do
                    for kx = 0 to p.pkernel - 1 do
                      let iy = (oy * p.pstride) + ky and ix = (ox * p.pstride) + kx in
                      if at4 src item iy ix c = v then
                        set4 src_g item iy ix c (at4 src_g item iy ix c +. g)
                    done
                  done
              | `Avg ->
                  let share = g /. float_of_int (p.pkernel * p.pkernel) in
                  for ky = 0 to p.pkernel - 1 do
                    for kx = 0 to p.pkernel - 1 do
                      let iy = (oy * p.pstride) + ky and ix = (ox * p.pstride) + kx in
                      set4 src_g item iy ix c (at4 src_g item iy ix c +. share)
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
              src_value = Layout.value_buf (Option.get st.layer.source).Ensemble.name;
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

let backward t =
  Array.iter
    (fun st ->
      Tensor.fill st.grad 0.0;
      Option.iter (fun g -> Tensor.fill g 0.0) st.wgrad;
      Option.iter (fun g -> Tensor.fill g 0.0) st.bgrad)
    t.layers;
  for i = Array.length t.layers - 1 downto 0 do
    backward_layer t t.layers.(i)
  done
