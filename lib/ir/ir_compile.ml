open Ir

let ug = Tensor.buffer_get
let us = Tensor.buffer_set
let ug8 = Tensor.buffer_get_i8
let us8 = Tensor.buffer_set_i8

(* Per-access safety: [Guard_unproven] (the default) keeps the unsafe
   fast path for accesses {!Ir_bounds} proves in-bounds and emits a
   runtime bounds check for the rest; [Checked] guards everything (the
   baseline that shows what the proof buys — see bench/micro.ml). *)
type safety = Guard_unproven | Checked

(* How parallel-annotated loops are dispatched: [run f] must execute
   [f w] for every worker index [w] in [0, workers) and return once all
   have finished (the Domain_pool provides this; injected here because
   the runtime layer sits above the IR layer). *)
type par_runner = { workers : int; run : (int -> unit) -> unit }

(* Cooperative cancellation: a token is a single mutable cell polled by
   the compiled code at section entry (see [run]) and at every iteration
   of outermost loops — including each worker's stride loop inside a
   parallel dispatch. Checks are only emitted at those points, so the
   amortized cost is one load + compare per outer (batch / feature-map)
   iteration; inner loops run unchecked. Cancelling mid-run makes the
   next polled point raise [Cancelled], unwinding out of the compiled
   closures with partial writes left in the buffers (the caller is
   responsible for discarding them — see Executor.scrub). *)
type token = { mutable cancel_reason : string option }

exception Cancelled of string

let token () = { cancel_reason = None }

let cancel tok ~reason =
  (* First cancellation wins: a watchdog and a deadline racing for the
     same run should report one coherent reason. *)
  if tok.cancel_reason = None then tok.cancel_reason <- Some reason

let cancelled tok = tok.cancel_reason <> None
let cancel_reason tok = tok.cancel_reason
let reset_token tok = tok.cancel_reason <- None

let check_token tok =
  match tok.cancel_reason with Some r -> raise (Cancelled r) | None -> ()

type par_entry = {
  par_var : string;  (** Loop variable of the parallel loop. *)
  par_workers : int;  (** Chunks dispatched; 1 when the loop fell back. *)
  par_replayed : string list;
      (** Buffers whose conflicting writes are replayed sequentially. *)
  par_fallback : string option;
      (** Why the loop stayed sequential, when it did. *)
}

type ctx = {
  lookup : string -> Tensor.t;
      (* f32 view; raises on packed buffers — only Externs (which are
         never quantized) go through it at run time. *)
  store_of : string -> Tensor.store;
      (* Precision-aware view; total over registered buffers. *)
  slots : (string, int) Hashtbl.t;
  regs : int array;
  stats : (string, int) Hashtbl.t;
  safety : safety;
  shape_of : string -> int array option;
  runner : par_runner option;
  in_par : bool;  (* Inside a parallelized loop: nested loops stay sequential. *)
  schedule : par_entry list ref;  (* Newest first; reversed by [schedule]. *)
  token : token option;  (* Cancellation cell polled by outer loops. *)
  top : bool;  (* At statement-list top level: outermost loops poll the token. *)
  written : Obj.t list Lazy.t;
      (* Storage ids of the buffers the section writes; forced by the
         first int8 gather, so f32 compiles never build it. *)
  shadows : shadow list ref;
      (* Shared by the worker recompiles of a parallel loop. *)
}

(* The int8 codes of an f32 gather source under one scale. The
   section's entry re-encodes the whole source (see [compile]), so a
   gather reads a code as often as its layout repeats the element (an
   im2col gather up to k·k times) but encodes it once per run. *)
and shadow = {
  sh_src : Tensor.buffer;
  sh_scale : float;
  sh_codes : Tensor.buffer_i8;
}

type compiled = { entry : unit -> unit; ctx : ctx }

let bump_stat ctx kind =
  let n = Option.value ~default:0 (Hashtbl.find_opt ctx.stats kind) in
  Hashtbl.replace ctx.stats kind (n + 1)

(* ------------------------------------------------------------------ *)
(* Variable slots                                                      *)
(* ------------------------------------------------------------------ *)

let collect_vars free_vars stmts =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  let add v =
    if not (Hashtbl.mem tbl v) then begin
      Hashtbl.replace tbl v (Hashtbl.length tbl);
      order := v :: !order
    end
  in
  List.iter add free_vars;
  let rec go s =
    match s with
    | For l ->
        add l.var;
        List.iter go l.body
    | If (_, t, e) ->
        List.iter go t;
        List.iter go e
    | Store _ | Accum _ | Memset _ | Gemm _ | Fusion_barrier _ | Extern _ -> ()
  in
  List.iter go stmts;
  tbl

let slot ctx v =
  match Hashtbl.find_opt ctx.slots v with
  | Some s -> s
  | None -> failwith (Printf.sprintf "Ir_compile: unbound variable %s" v)

let reg (regs : int array) s = Array.unsafe_get regs s

(* ------------------------------------------------------------------ *)
(* Generic expression compilation                                      *)
(* ------------------------------------------------------------------ *)

(* An integer expression compiles from its {!Ir_linear} normal form
   [k + Σ c·atom]: one closure sums the loop-variable terms straight
   from the registers (straight-line code for up to three, a loop
   beyond), and only the non-affine atoms (div, mod, min, max, variable
   products) compile node by node. The normal form is value-exact over
   [int], so no index changes. *)
let rec compile_i ctx e : unit -> int =
  let lin = Ir_linear.of_iexpr (simplify_iexpr e) in
  let k = lin.Ir_linear.k in
  let vars, atoms =
    Ir_linear.Emap.fold
      (fun atom c (vars, atoms) ->
        match atom with
        | Ivar v -> ((slot ctx v, c) :: vars, atoms)
        | _ -> (vars, (compile_atom ctx atom, c) :: atoms))
      lin.Ir_linear.terms ([], [])
  in
  let regs = ctx.regs in
  let affine =
    match vars with
    | [] -> fun () -> k
    | [ (s0, c0) ] -> fun () -> k + (c0 * reg regs s0)
    | [ (s0, c0); (s1, c1) ] ->
        fun () -> k + (c0 * reg regs s0) + (c1 * reg regs s1)
    | [ (s0, c0); (s1, c1); (s2, c2) ] ->
        fun () ->
          k + (c0 * reg regs s0) + (c1 * reg regs s1) + (c2 * reg regs s2)
    | _ ->
        let ss = Array.of_list (List.map fst vars)
        and cs = Array.of_list (List.map snd vars) in
        fun () ->
          let acc = ref k in
          for j = 0 to Array.length ss - 1 do
            acc := !acc + (Array.unsafe_get cs j * reg regs (Array.unsafe_get ss j))
          done;
          !acc
  in
  match atoms with
  | [] -> affine
  | _ ->
      let atoms = Array.of_list atoms in
      fun () ->
        Array.fold_left (fun acc (a, c) -> acc + (c * a ())) (affine ()) atoms

(* A non-affine atom of the normal form; its operands are normalized
   again by [compile_i]. *)
and compile_atom ctx e : unit -> int =
  match e with
  | Iconst _ | Ivar _ | Iadd _ | Isub _ -> compile_i ctx e
  | Imul (a, b) ->
      let ca = compile_i ctx a and cb = compile_i ctx b in
      fun () -> ca () * cb ()
  | Idiv (a, b) ->
      let ca = compile_i ctx a and cb = compile_i ctx b in
      fun () -> ca () / cb ()
  | Imod (a, b) ->
      let ca = compile_i ctx a and cb = compile_i ctx b in
      fun () -> ca () mod cb ()
  | Imin (a, b) ->
      let ca = compile_i ctx a and cb = compile_i ctx b in
      fun () -> min (ca ()) (cb ())
  | Imax (a, b) ->
      let ca = compile_i ctx a and cb = compile_i ctx b in
      fun () -> max (ca ()) (cb ())

let flat_of ctx buf idx =
  let st = ctx.store_of buf in
  let shape = Tensor.store_shape st in
  (st, Ir_analysis.flat_index ~shape idx)

(* Does this access keep the unsafe fast path? [benv] carries the
   enclosing loop-variable intervals and guard facts. *)
let access_ok ctx benv buf idx =
  match ctx.safety with
  | Checked -> false
  | Guard_unproven -> (
      match ctx.shape_of buf with
      | Some shape -> Ir_bounds.access_proven benv ~shape idx
      | None -> false)

let oob what buf i extent =
  raise
    (Invalid_argument
       (Printf.sprintf
          "latte: out-of-bounds %s: buffer %s index %d outside extent [0, %d)"
          what buf i extent))

let apply_unop = Ir_eval.apply_unop
let apply_binop = Ir_eval.apply_binop

let rec compile_f ctx benv e : unit -> float =
  match e with
  | Fconst x -> fun () -> x
  | Float_of_int a ->
      let ca = compile_i ctx a in
      fun () -> float_of_int (ca ())
  | Load (buf, idx) -> (
      let st, flat = flat_of ctx buf idx in
      let ci = compile_i ctx flat in
      match Tensor.store_f32_data st with
      | Some data ->
          if access_ok ctx benv buf idx then fun () -> ug data (ci ())
          else begin
            bump_stat ctx "guarded";
            let extent = Bigarray.Array1.dim data in
            fun () ->
              let i = ci () in
              if i < 0 || i >= extent then oob "load" buf i extent;
              ug data i
          end
      | None ->
          (* Packed storage: decode through the store's reader. *)
          let rd = Tensor.store_reader st in
          if access_ok ctx benv buf idx then fun () -> rd (ci ())
          else begin
            bump_stat ctx "guarded";
            let extent = Tensor.store_numel st in
            fun () ->
              let i = ci () in
              if i < 0 || i >= extent then oob "load" buf i extent;
              rd i
          end)
  | Funop (Neg, a) ->
      let ca = compile_f ctx benv a in
      fun () -> -.ca ()
  | Funop (op, a) ->
      let ca = compile_f ctx benv a in
      let g = apply_unop op in
      fun () -> g (ca ())
  | Fbinop (Fadd, a, b) ->
      let ca = compile_f ctx benv a and cb = compile_f ctx benv b in
      fun () -> ca () +. cb ()
  | Fbinop (Fmul, a, b) ->
      let ca = compile_f ctx benv a and cb = compile_f ctx benv b in
      fun () -> ca () *. cb ()
  | Fbinop (op, a, b) ->
      let ca = compile_f ctx benv a and cb = compile_f ctx benv b in
      let g = apply_binop op in
      fun () -> g (ca ()) (cb ())
  | Select (c, a, b) ->
      let cc = compile_c ctx benv c
      and ca = compile_f ctx (Ir_bounds.assume c benv) a
      and cb = compile_f ctx (Ir_bounds.assume_not c benv) b in
      fun () -> if cc () then ca () else cb ()

and compile_c ctx benv c : unit -> bool =
  match c with
  | Icmp (op, a, b) ->
      let ca = compile_i ctx a and cb = compile_i ctx b in
      let g : int -> int -> bool = Ir_eval.apply_cmp op in
      fun () -> g (ca ()) (cb ())
  | Fcmp (op, a, b) ->
      let ca = compile_f ctx benv a and cb = compile_f ctx benv b in
      let g : float -> float -> bool = Ir_eval.apply_cmp op in
      fun () -> g (ca ()) (cb ())
  | Cand (a, b) ->
      let ca = compile_c ctx benv a and cb = compile_c ctx benv b in
      fun () -> ca () && cb ()
  | Cor (a, b) ->
      let ca = compile_c ctx benv a and cb = compile_c ctx benv b in
      fun () -> ca () || cb ()
  | Cnot a ->
      let ca = compile_c ctx benv a in
      fun () -> not (ca ())

(* ------------------------------------------------------------------ *)
(* Specialized innermost-loop kernels                                  *)
(* ------------------------------------------------------------------ *)

(* A strided access: flat index = base + i * stride, with [base] free of
   the loop variable. [b] caches the resolved base on loop entry. [data]
   is the raw f32 or int8 buffer. *)
type 'a saccess = {
  data : 'a;
  base : unit -> int;
  stride : int;
  mutable b : int;
}

type sval =
  | Sconst of float
  | Sload of Tensor.buffer saccess
  | Sdecode of Tensor.buffer_i8 saccess * Precision.qparams
      (* An int8 load, decoded inline; the f32 kernels match only [Sload]. *)
  | Sunop of funop * sval
  | Sbinop of fbinop * sval * sval
  | Sselect of scond * sval * sval

and scond =
  | Sicmp of cmp * sidx * sidx
  | Sfcmp of cmp * sval * sval
  | Sand of scond * scond
  | Sor of scond * scond
  | Snot of scond

and sidx = { ibase : unit -> int; istride : int; mutable ib : int }

exception Not_fast

let rec to_sval ctx var e =
  match e with
  | Fconst x -> Sconst x
  | Float_of_int a -> (
      match simplify_iexpr a with
      | Iconst n -> Sconst (float_of_int n)
      | _ -> raise Not_fast)
  | Load (buf, idx) -> (
      let st, flat = flat_of ctx buf idx in
      let stride =
        match Ir_analysis.stride_of ~var flat with
        | Some s -> s
        | None -> raise Not_fast
      in
      let base = compile_i ctx (subst_iexpr var (Iconst 0) flat) in
      match st with
      | Tensor.Store (Precision.F32, _, g) ->
          Sload { data = g.Tensor.data; base; stride; b = 0 }
      | Tensor.Store (Precision.I8, qp, g) ->
          Sdecode ({ data = g.Tensor.data; base; stride; b = 0 }, qp))
  | Funop (op, a) -> Sunop (op, to_sval ctx var a)
  | Fbinop (op, a, b) -> Sbinop (op, to_sval ctx var a, to_sval ctx var b)
  | Select (c, a, b) ->
      Sselect (to_scond ctx var c, to_sval ctx var a, to_sval ctx var b)

and to_scond ctx var c =
  match c with
  | Icmp (op, a, b) -> Sicmp (op, to_sidx ctx var a, to_sidx ctx var b)
  | Fcmp (op, a, b) -> Sfcmp (op, to_sval ctx var a, to_sval ctx var b)
  | Cand (a, b) -> Sand (to_scond ctx var a, to_scond ctx var b)
  | Cor (a, b) -> Sor (to_scond ctx var a, to_scond ctx var b)
  | Cnot a -> Snot (to_scond ctx var a)

and to_sidx ctx var e =
  match Ir_analysis.stride_of ~var e with
  | Some istride ->
      let base_e = subst_iexpr var (Iconst 0) e in
      { ibase = compile_i ctx base_e; istride; ib = 0 }
  | None -> raise Not_fast

let rec resolve_sval v =
  match v with
  | Sconst _ -> ()
  | Sload a -> a.b <- a.base ()
  | Sdecode (a, _) -> a.b <- a.base ()
  | Sunop (_, a) -> resolve_sval a
  | Sbinop (_, a, b) ->
      resolve_sval a;
      resolve_sval b
  | Sselect (c, a, b) ->
      resolve_scond c;
      resolve_sval a;
      resolve_sval b

and resolve_scond c =
  match c with
  | Sicmp (_, a, b) ->
      a.ib <- a.ibase ();
      b.ib <- b.ibase ()
  | Sfcmp (_, a, b) ->
      resolve_sval a;
      resolve_sval b
  | Sand (a, b) | Sor (a, b) ->
      resolve_scond a;
      resolve_scond b
  | Snot a -> resolve_scond a

let rec eval_sval v i =
  match v with
  | Sconst x -> x
  | Sload a -> ug a.data (a.b + (i * a.stride))
  | Sdecode (a, qp) ->
      qp.Precision.scale *. float_of_int (ug8 a.data (a.b + (i * a.stride)))
  | Sunop (op, a) -> apply_unop op (eval_sval a i)
  | Sbinop (Fadd, a, b) -> eval_sval a i +. eval_sval b i
  | Sbinop (Fmul, a, b) -> eval_sval a i *. eval_sval b i
  | Sbinop (op, a, b) -> apply_binop op (eval_sval a i) (eval_sval b i)
  | Sselect (c, a, b) -> if eval_scond c i then eval_sval a i else eval_sval b i

and eval_scond c i =
  match c with
  | Sicmp (op, a, b) ->
      (Ir_eval.apply_cmp op : int -> int -> bool)
        (a.ib + (i * a.istride))
        (b.ib + (i * b.istride))
  | Sfcmp (op, a, b) ->
      (Ir_eval.apply_cmp op : float -> float -> bool) (eval_sval a i)
        (eval_sval b i)
  | Sand (a, b) -> eval_scond a i && eval_scond b i
  | Sor (a, b) -> eval_scond a i || eval_scond b i
  | Snot a -> not (eval_scond a i)

type dst_kind = Dstore | Dsum | Dmax

(* ------------------------------------------------------------------ *)
(* Loop collapsing: merge [for v1 in 0..E1 { for v2 in 0..E2 { s } }]
   into a single loop when every buffer access steps contiguously
   across the pair (stride(v1) = E2 * stride(v2)) — the codegen-side
   counterpart of the pattern matcher's loop flattening, which is what
   turns synthesized elementwise nests into single long vectorizable
   loops. *)

let collapse_strides ctx ~v1 ~v2 ~e2 stmt =
  let ok = ref true in
  let check_idx buf idx =
    let _, flat = flat_of ctx buf idx in
    match (Ir_analysis.stride_of ~var:v1 flat, Ir_analysis.stride_of ~var:v2 flat) with
    | Some s1, Some s2 -> if s1 <> e2 * s2 then ok := false
    | _ -> ok := false
  in
  let rec go_f e =
    match e with
    | Fconst _ -> ()
    | Float_of_int a -> go_i a
    | Load (b, idx) -> check_idx b idx
    | Funop (_, a) -> go_f a
    | Fbinop (_, a, b) -> go_f a; go_f b
    | Select (c, a, b) -> go_c c; go_f a; go_f b
  and go_i e =
    if not (Ir_analysis.is_free_of v1 e && Ir_analysis.is_free_of v2 e) then
      ok := false
  and go_c c =
    match c with
    | Icmp (_, a, b) ->
        (* Conditions rarely collapse cleanly; require independence. *)
        go_i a; go_i b
    | Fcmp (_, a, b) -> go_f a; go_f b
    | Cand (a, b) | Cor (a, b) -> go_c a; go_c b
    | Cnot a -> go_c a
  in
  (match stmt with
  | Store { buf; idx; value } -> check_idx buf idx; go_f value
  | Accum { buf; idx; value; _ } -> check_idx buf idx; go_f value
  | For _ | If _ | Memset _ | Gemm _ | Fusion_barrier _ | Extern _ -> ok := false);
  !ok

let rec collapse_loop ctx (l : loop) =
  match (l.body, simplify_iexpr l.lo, simplify_iexpr l.hi) with
  | [ For inner ], Iconst 0, Iconst e1 -> (
      let inner = collapse_loop ctx inner in
      match (inner.body, simplify_iexpr inner.lo, simplify_iexpr inner.hi) with
      | [ stmt ], Iconst 0, Iconst e2
        when collapse_strides ctx ~v1:l.var ~v2:inner.var ~e2 stmt ->
          (* flat = base + s2 * (E2*v1 + v2): substituting v1 -> 0 and
             v2 -> v gives the collapsed access directly. *)
          let v = l.var ^ "*" ^ inner.var in
          if not (Hashtbl.mem ctx.slots v) then
            Hashtbl.replace ctx.slots v (Hashtbl.length ctx.slots);
          let stmt = subst_stmt l.var (Iconst 0) stmt in
          let stmt = subst_stmt inner.var (Ivar v) stmt in
          {
            l with
            var = v;
            lo = Iconst 0;
            hi = Iconst (e1 * e2);
            body = [ stmt ];
          }
      | _ -> { l with body = [ For inner ] })
  | _ -> l

(* [Precision.quantize], written out so that each int8 loop encodes
   inline: under dune's [-opaque] a call into [Precision] is out of line
   and boxes its float argument, and the stdlib's round is the C
   function [caml_round]. This round is half away from zero too: from
   0.5 up, [a +. 0.5] rounds without crossing an integer, so its
   truncation is exact; below 0.5 the sum could round up to 1.0
   ([0.49999999999999994 +. 0.5 = 1.0]), so that range returns 0
   directly. Past the range test, a value at or beyond either end
   saturates and NaN (which fails every comparison) encodes as 0. A
   test pins it to [Precision.quantize] on NaN, the infinities, both
   zeros, the half-way points and their neighbours, and both clamp
   ends. *)
let[@inline] encode ~scale v =
  let t = v /. scale in
  if t > -128.0 && t < 127.0 then begin
    let a = Float.abs t in
    let r = if a < 0.5 then 0 else int_of_float (a +. 0.5) in
    if t < 0.0 then -r else r
  end
  else if t >= 127.0 then 127
  else if t <= -128.0 then -128
  else 0

(* Does a statement of the section write [data]'s storage? Aliases
   share their block, so storage identity covers them. *)
let section_writes ctx data =
  let id = Obj.repr data in
  List.exists (fun w -> w == id) (Lazy.force ctx.written)

(* The shadow of [src] under [scale], allocated on first use. *)
let shadow_codes ctx src ~scale =
  match
    List.find_opt
      (fun sh -> sh.sh_src == src && Float.equal sh.sh_scale scale)
      !(ctx.shadows)
  with
  | Some sh -> sh.sh_codes
  | None ->
      let codes =
        Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout
          (Bigarray.Array1.dim src)
      in
      ctx.shadows :=
        { sh_src = src; sh_scale = scale; sh_codes = codes } :: !(ctx.shadows);
      codes

let fill_shadow { sh_src; sh_scale = scale; sh_codes } =
  for i = 0 to Bigarray.Array1.dim sh_codes - 1 do
    us8 sh_codes i (encode ~scale (ug sh_src i))
  done

(* The code-domain loops (code copy, max) need a positive scale, so that
   encode is monotone, and [encode (decode q) = q] for all 256 codes.
   [Precision.qparams_of_absmax] gives both for any finite absmax; any
   other code takes the decoded loop. *)
let codes_exact qp =
  qp.Precision.scale > 0.0
  && List.for_all
       (fun q -> Precision.quantize qp (Precision.dequantize qp q) = q)
       (List.init 256 (fun k -> k - 128))

(* Compile an innermost loop [for var = lo..hi) { dst[..] op= value }]
   into a specialized kernel for [dst]'s precision (an int8 one reads
   and writes codes inline), or into that precision's generic loop when
   no kernel matches. Raises [Not_fast] if the shape is not recognized. *)
let compile_fast_loop ctx (l : loop) =
  let l = collapse_loop ctx l in
  let body_stmt = match l.body with [ s ] -> s | _ -> raise Not_fast in
  let kind, buf, idx, value =
    match body_stmt with
    | Store { buf; idx; value } -> (Dstore, buf, idx, value)
    | Accum { op = Acc_sum; buf; idx; value } -> (Dsum, buf, idx, value)
    | Accum { op = Acc_max; buf; idx; value } -> (Dmax, buf, idx, value)
    | For _ | If _ | Memset _ | Gemm _ | Fusion_barrier _ | Extern _ ->
        raise Not_fast
  in
  let var = l.var in
  let st, flat = flat_of ctx buf idx in
  let dstride =
    match Ir_analysis.stride_of ~var flat with
    | Some s -> s
    | None -> raise Not_fast
  in
  let dbase = compile_i ctx (subst_iexpr var (Iconst 0) flat) in
  let sv = to_sval ctx var value in
  let clo = compile_i ctx l.lo and chi = compile_i ctx l.hi in
  (* Writing through a register slot keeps [var] visible to any Extern
     or diagnostic that might read it; cheap enough to do always. *)
  let vslot = slot ctx var in
  let regs = ctx.regs in
  match st with
  | Tensor.Store (Precision.I8, qp, g) -> (
      let dd = g.Tensor.data in
      let scale = qp.Precision.scale in
      match (kind, sv) with
      | Dstore, Sload s when not (section_writes ctx s.data) ->
          (* A gather from f32 data the section does not write copies
             codes from the source's shadow, as [i8_copy] does; one
             from storage the section writes takes the decoded loop. *)
          bump_stat ctx "i8_encode";
          let codes = shadow_codes ctx s.data ~scale in
          let ss = s.stride in
          fun () ->
            let lo = clo () and hi = chi () in
            let db = dbase () and sb = s.base () in
            for i = lo to hi - 1 do
              us8 dd (db + (i * dstride)) (ug8 codes (sb + (i * ss)))
            done
      | Dstore, Sdecode (s, sqp) when sqp = qp && codes_exact qp ->
          (* A gather from an int8 buffer under the same code: as
             [encode (decode q) = q], the code itself is copied. *)
          bump_stat ctx "i8_copy";
          let ss = s.stride in
          fun () ->
            let lo = clo () and hi = chi () in
            let db = dbase () and sb = s.base () in
            for i = lo to hi - 1 do
              us8 dd (db + (i * dstride)) (ug8 s.data (sb + (i * ss)))
            done
      | Dstore, Sconst c ->
          (* The max-pool's [-inf] initializer: one code for the loop. *)
          bump_stat ctx "i8_fill";
          let code = encode ~scale c in
          fun () ->
            let lo = clo () and hi = chi () in
            let db = dbase () in
            for i = lo to hi - 1 do
              us8 dd (db + (i * dstride)) code
            done
      | Dmax, Sload s when codes_exact qp ->
          (* [encode (Float.max (decode d) v)] is the larger of [d] and
             [encode v], encode being monotone, except that a NaN [v]
             makes [Float.max] NaN, which encodes as code 0. *)
          bump_stat ctx "i8_max";
          let ss = s.stride in
          fun () ->
            let lo = clo () and hi = chi () in
            let db = dbase () and sb = s.base () in
            for i = lo to hi - 1 do
              let j = db + (i * dstride) in
              let v = ug s.data (sb + (i * ss)) in
              if v <> v then us8 dd j 0
              else begin
                let e = encode ~scale v in
                if e > ug8 dd j then us8 dd j e
              end
            done
      | _ ->
          (* The generic loop, through the store's writer (and its
             reader for sum and max). *)
          bump_stat ctx "decoded";
          let rd = Tensor.store_reader st and wr = Tensor.store_writer st in
          fun () ->
            let lo = clo () and hi = chi () in
            let db = dbase () in
            resolve_sval sv;
            (match kind with
            | Dstore ->
                for i = lo to hi - 1 do
                  Array.unsafe_set regs vslot i;
                  wr (db + (i * dstride)) (eval_sval sv i)
                done
            | Dsum ->
                for i = lo to hi - 1 do
                  Array.unsafe_set regs vslot i;
                  let j = db + (i * dstride) in
                  wr j (rd j +. eval_sval sv i)
                done
            | Dmax ->
                for i = lo to hi - 1 do
                  Array.unsafe_set regs vslot i;
                  let j = db + (i * dstride) in
                  wr j (Float.max (rd j) (eval_sval sv i))
                done))
  | Tensor.Store (Precision.F32, _, g) ->
      let ddata = g.Tensor.data in
      let generic () =
        let lo = clo () and hi = chi () in
        let db = dbase () in
        resolve_sval sv;
        match kind with
        | Dstore ->
            for i = lo to hi - 1 do
              Array.unsafe_set regs vslot i;
              us ddata (db + (i * dstride)) (eval_sval sv i)
            done
        | Dsum ->
            for i = lo to hi - 1 do
              Array.unsafe_set regs vslot i;
              let j = db + (i * dstride) in
              us ddata j (ug ddata j +. eval_sval sv i)
            done
        | Dmax ->
            for i = lo to hi - 1 do
              Array.unsafe_set regs vslot i;
              let j = db + (i * dstride) in
              us ddata j (Float.max (ug ddata j) (eval_sval sv i))
            done
      in
      (* Pattern-match the statically known tree shape and emit a dedicated
         tight loop for the hot kernels. *)
      match (kind, sv) with
      | Dstore, Sload s ->
          bump_stat ctx "copy_strided";
          let sd = s.stride in
          fun () ->
            let lo = clo () and hi = chi () in
            let db = dbase () and sb = s.base () in
            for i = lo to hi - 1 do
              us ddata (db + (i * dstride)) (ug s.data (sb + (i * sd)))
            done
      | Dsum, Sbinop (Fmul, Sload a, Sload b) ->
          (* The weighted neuron's dot products and gradients when GEMM
             matching is off. A stride-0 destination is a dot product;
             it is read and rounded to f32 at every step like Ir_eval,
             not summed in a register, so the result is bit-identical. *)
          bump_stat ctx "fma";
          let sa = a.stride and sb_ = b.stride in
          fun () ->
            let lo = clo () and hi = chi () in
            let db = dbase () in
            let ab = a.base () and bb = b.base () in
            for i = lo to hi - 1 do
              let j = db + (i * dstride) in
              us ddata j
                (ug ddata j +. (ug a.data (ab + (i * sa)) *. ug b.data (bb + (i * sb_))))
            done
      | Dsum, Sload s ->
          bump_stat ctx "acc_add";
          let ss = s.stride in
          fun () ->
            let lo = clo () and hi = chi () in
            let db = dbase () and sb = s.base () in
            for i = lo to hi - 1 do
              let j = db + (i * dstride) in
              us ddata j (ug ddata j +. ug s.data (sb + (i * ss)))
            done
      | Dmax, Sload s ->
          bump_stat ctx "acc_max";
          let ss = s.stride in
          fun () ->
            let lo = clo () and hi = chi () in
            let db = dbase () and sb = s.base () in
            for i = lo to hi - 1 do
              let j = db + (i * dstride) in
              us ddata j (Float.max (ug ddata j) (ug s.data (sb + (i * ss))))
            done
      | Dstore, Sbinop (Fmax, Sload s, Sconst c)
        when dstride = s.stride
             && not (Float.is_nan c || (c = 0.0 && Float.sign_bit c)) ->
          (* Exactly [Float.max v c] without a call per element: a NaN
             [v] propagates, and a +0.0 [c] beats a -0.0 [v]. For a NaN
             or -0.0 [c] the comparison would differ from [Float.max]
             (NaN payload, the sign of zero), so those take the generic
             loop. *)
          bump_stat ctx "relu";
          let ss = s.stride in
          fun () ->
            let lo = clo () and hi = chi () in
            let db = dbase () and sb = s.base () in
            for i = lo to hi - 1 do
              let v = ug s.data (sb + (i * ss)) in
              us ddata (db + (i * dstride)) (if v > c || v <> v then v else c)
            done
      | _ ->
          bump_stat ctx "generic";
          generic

(* ------------------------------------------------------------------ *)
(* Parallel-loop partitioning (§5.4.3)                                 *)
(*                                                                     *)
(* A parallel-annotated loop is split into a parallel body — leaves    *)
(* whose writes provably land in per-iteration-disjoint regions, run   *)
(* chunked across the domain pool — and a replay body of conflicting   *)
(* writes (weight-gradient accumulations, whole-buffer memsets) that   *)
(* the caller re-executes sequentially, in exact iteration order,      *)
(* after the barrier. Replaying instead of reducing per-domain partial *)
(* buffers is what makes results bit-identical to sequential           *)
(* execution at any domain count: float accumulation order never       *)
(* changes. Loops the split cannot prove safe fall back to sequential  *)
(* execution wholesale.                                                *)
(* ------------------------------------------------------------------ *)

module SS = Set.Make (String)

(* Same evidence the verifier accepts that [e] differs across iterations
   of the loop over [v]: a nonzero affine stride in [v], or a mention of
   an inner variable whose bounds depend on [v] (tiling encodes
   disjointness through bounds). *)
let par_varies ~v ~dep e =
  (match Ir_analysis.stride_of ~var:v e with
  | Some n when n <> 0 -> true
  | _ -> false)
  || SS.exists (fun x -> SS.mem x dep) (Ir_analysis.ivars SS.empty e)

(* The strong form: a nonzero affine stride in [v] itself. Accumulations
   run in parallel only under this rule — bounds-mediated evidence keeps
   tile-halo accumulations (which overlap across tiles) out of the
   parallel part, where they would double-count nondeterministically. *)
let par_strides ~v e =
  match Ir_analysis.stride_of ~var:v e with Some n when n <> 0 -> true | _ -> false

exception Par_fallback of string

type par_access = {
  a_data : Obj.t;  (* Storage-block identity (any precision). *)
  a_buf : string;
  a_pos : int;  (* Pre-order position, for intra-iteration ordering. *)
  a_varies : bool;
}

type par_split = {
  split_par : stmt list;
  split_seq : stmt list;
  split_replayed : string list;
}

let partition_parallel ctx benv (l : loop) =
  let v = l.var in
  (* Per-buffer dependence verdicts under the enclosing-loop
     environment. Independent admits accesses the syntactic stride
     rules cannot see (clamped tile bounds, scaled offsets). The
     verdicts are name-based, so the checks below re-check physical
     storage identity. *)
  let verdicts =
    Ir_deps.analyze_loop ~env:benv
      ~shape_of:(fun buf -> Some (Tensor.store_shape (ctx.store_of buf)))
      l
  in
  let verdict_of buf =
    match
      List.find_opt (fun bv -> bv.Ir_deps.bv_buf = buf) verdicts
    with
    | Some bv -> bv.Ir_deps.bv_verdict
    | None -> Ir_deps.Unknown "buffer not analyzed"
  in
  let independent buf = verdict_of buf = Ir_deps.Independent in
  let pos = ref 0 in
  let par_reads = ref []
  and par_writes = ref []
  and seq_reads = ref []
  and seq_writes = ref [] in
  let record set buf varies =
    set :=
      { a_data = Tensor.store_data_id (ctx.store_of buf); a_buf = buf;
        a_pos = !pos; a_varies = varies }
      :: !set
  in
  let record_value_loads set ~dep value =
    List.iter
      (fun (b, idx) -> record set b (List.exists (par_varies ~v ~dep) idx))
      (loads value)
  in
  let record_cond_loads set ~dep c =
    List.iter
      (fun (b, idx) -> record set b (List.exists (par_varies ~v ~dep) idx))
      (cond_loads c)
  in
  let rec split dep stmts =
    let parts = List.map (split1 dep) stmts in
    (List.filter_map fst parts, List.filter_map snd parts)
  and split1 dep s : stmt option * stmt option =
    incr pos;
    match s with
    | Store { buf; idx; value } ->
        if List.exists (par_varies ~v ~dep) idx || independent buf then begin
          record par_writes buf true;
          record_value_loads par_reads ~dep value;
          (Some s, None)
        end
        else begin
          record seq_writes buf false;
          record_value_loads seq_reads ~dep value;
          (None, Some s)
        end
    | Accum { buf; idx; value; _ } ->
        if List.exists (par_strides ~v) idx || independent buf then begin
          record par_writes buf true;
          record par_reads buf true;
          record_value_loads par_reads ~dep value;
          (Some s, None)
        end
        else begin
          record seq_writes buf false;
          record seq_reads buf (List.exists (par_varies ~v ~dep) idx);
          record_value_loads seq_reads ~dep value;
          (None, Some s)
        end
    | Memset { buf; _ } ->
        (* Replaying the fill n times reproduces sequential semantics. *)
        record seq_writes buf false;
        (None, Some s)
    | Gemm g ->
        let reads set =
          record set g.a (par_varies ~v ~dep g.off_a);
          record set g.b (par_varies ~v ~dep g.off_b);
          if g.beta <> 0.0 then record set g.c (par_varies ~v ~dep g.off_c)
        in
        let disjoint =
          (if g.beta = 0.0 then par_varies ~v ~dep g.off_c
           else par_strides ~v g.off_c)
          || independent g.c
        in
        if disjoint then begin
          record par_writes g.c true;
          reads par_reads;
          (Some s, None)
        end
        else begin
          record seq_writes g.c false;
          reads seq_reads;
          (None, Some s)
        end
    | Extern e ->
        (* Externs may force shared lazy state (gather adjacency) and
           give no access footprint to reason about. *)
        raise (Par_fallback (Printf.sprintf "extern %s" e.name))
    | Fusion_barrier _ -> (Some s, None)
    | If (c, t, e) ->
        let pt, st = split dep t in
        let pe, se = split dep e in
        let shell set branches =
          match branches with
          | [], [] -> None
          | t, e ->
              record_cond_loads set ~dep c;
              Some (If (c, t, e))
        in
        (shell par_reads (pt, pe), shell seq_reads (st, se))
    | For inner ->
        let bvars =
          Ir_analysis.ivars (Ir_analysis.ivars SS.empty inner.lo) inner.hi
        in
        let dep =
          if SS.mem v bvars || SS.exists (fun x -> SS.mem x dep) bvars then
            SS.add inner.var dep
          else dep
        in
        let pb, sb = split dep inner.body in
        ( (if pb = [] then None else Some (For { inner with body = pb })),
          if sb = [] then None else Some (For { inner with body = sb }) )
  in
  let split_par, split_seq = split SS.empty l.body in
  let mem_data d lst = List.exists (fun a -> a.a_data == d) lst in
  (* Replayed writes must be invisible to the parallel part: the replay
     happens after the barrier, so a parallel read or write of the same
     storage would observe the wrong interleaving. *)
  List.iter
    (fun w ->
      if mem_data w.a_data !par_writes || mem_data w.a_data !par_reads then
        raise
          (Par_fallback
             (Printf.sprintf "buffer %s is replayed but used in the parallel part"
                w.a_buf)))
    !seq_writes;
  (* A replayed read of parallel-written storage sees every iteration's
     writes at once; that matches sequential execution only if the read
     is per-iteration (slice i reads region i) and no parallel write
     follows it within an iteration. *)
  List.iter
    (fun rd ->
      if mem_data rd.a_data !par_writes then begin
        if not rd.a_varies then
          raise
            (Par_fallback
               (Printf.sprintf
                  "replayed read of %s does not vary with %s" rd.a_buf v));
        List.iter
          (fun w ->
            if w.a_data == rd.a_data && w.a_pos > rd.a_pos then
              raise
                (Par_fallback
                   (Printf.sprintf
                      "parallel write of %s follows a replayed read" rd.a_buf)))
          !par_writes
      end)
    !seq_reads;
  (* A parallel read of parallel-written storage must itself be
     per-iteration, or a domain could observe another domain's
     in-flight writes. *)
  List.iter
    (fun rd ->
      if mem_data rd.a_data !par_writes && not rd.a_varies then
        raise
          (Par_fallback
             (Printf.sprintf "parallel read of %s does not vary with %s"
                rd.a_buf v)))
    !par_reads;
  let split_replayed =
    List.sort_uniq String.compare (List.map (fun a -> a.a_buf) !seq_writes)
  in
  { split_par; split_seq; split_replayed }

(* ------------------------------------------------------------------ *)
(* Statement compilation                                               *)
(* ------------------------------------------------------------------ *)

(* A compiled destination: raw f32 buffer plus index for the classic
   case, decoded read/write closures for packed storage. *)
type dest =
  | Dest_f32 of Tensor.buffer * (unit -> int)
  | Dest_any of (int -> float) * (int -> float -> unit) * (unit -> int)

let store_dest ctx benv ~what buf idx =
  let st, flat = flat_of ctx buf idx in
  let ci = compile_i ctx flat in
  let guard ci =
    if access_ok ctx benv buf idx then ci
    else begin
      bump_stat ctx "guarded";
      let extent = Tensor.store_numel st in
      fun () ->
        let i = ci () in
        if i < 0 || i >= extent then oob what buf i extent;
        i
    end
  in
  match Tensor.store_f32_data st with
  | Some data -> Dest_f32 (data, guard ci)
  | None -> Dest_any (Tensor.store_reader st, Tensor.store_writer st, guard ci)

let rec compile_stmt ctx benv s : unit -> unit =
  match s with
  | Store { buf; idx; value } -> (
      let cv = compile_f ctx benv value in
      match store_dest ctx benv ~what:"store" buf idx with
      | Dest_f32 (data, ci) -> fun () -> us data (ci ()) (cv ())
      | Dest_any (_, wr, ci) -> fun () -> wr (ci ()) (cv ()))
  | Accum { op = Acc_sum; buf; idx; value } -> (
      let cv = compile_f ctx benv value in
      match store_dest ctx benv ~what:"accumulate" buf idx with
      | Dest_f32 (data, ci) ->
          fun () ->
            let i = ci () in
            us data i (ug data i +. cv ())
      | Dest_any (rd, wr, ci) ->
          fun () ->
            let i = ci () in
            wr i (rd i +. cv ()))
  | Accum { op = Acc_max; buf; idx; value } -> (
      let cv = compile_f ctx benv value in
      match store_dest ctx benv ~what:"accumulate" buf idx with
      | Dest_f32 (data, ci) ->
          fun () ->
            let i = ci () in
            us data i (Float.max (ug data i) (cv ()))
      | Dest_any (rd, wr, ci) ->
          fun () ->
            let i = ci () in
            wr i (Float.max (rd i) (cv ())))
  | Memset { buf; value } -> (
      match Tensor.store_f32_data (ctx.store_of buf) with
      | Some data -> fun () -> Bigarray.Array1.fill data value
      | None ->
          let st = ctx.store_of buf in
          fun () -> Tensor.store_fill st value)
  | Fusion_barrier _ -> fun () -> ()
  | Extern e ->
      let lookup = ctx.lookup in
      let get_item =
        match e.item_var with
        | Some v ->
            let s = slot ctx v in
            let regs = ctx.regs in
            fun () -> Array.unsafe_get regs s
        | None -> fun () -> 0
      in
      fun () -> e.run ~lookup ~item:(get_item ())
  | Gemm g ->
      let sa = ctx.store_of g.a in
      let sb = ctx.store_of g.b in
      let sc = ctx.store_of g.c in
      let cm = compile_i ctx g.m
      and cn = compile_i ctx g.n
      and ck = compile_i ctx g.k
      and coa = compile_i ctx g.off_a
      and cob = compile_i ctx g.off_b
      and coc = compile_i ctx g.off_c in
      let proven =
        match ctx.safety with
        | Checked -> false
        | Guard_unproven -> Ir_bounds.gemm_proven benv ~shape_of:ctx.shape_of g
      in
      (* The kernel is picked once, at compile time, from the operand
         precisions; all-f32 calls keep the direct Blas path. *)
      let call =
        match
          (Tensor.store_f32_data sa, Tensor.store_f32_data sb,
           Tensor.store_f32_data sc)
        with
        | Some a, Some b, Some c ->
            fun ~m ~n ~k ~off_a ~off_b ~off_c ->
              Blas.gemm ~alpha:g.alpha ~beta:g.beta ~transa:g.transa
                ~transb:g.transb ~m ~n ~k ~a ~off_a ~b ~off_b ~c ~off_c ()
        | _ ->
            bump_stat ctx (Qblas.kernel_name sa sb sc);
            fun ~m ~n ~k ~off_a ~off_b ~off_c ->
              Qblas.gemm ~alpha:g.alpha ~beta:g.beta ~transa:g.transa
                ~transb:g.transb ~m ~n ~k ~a:sa ~off_a ~b:sb ~off_b ~c:sc
                ~off_c ()
      in
      if proven then fun () ->
        call ~m:(cm ()) ~n:(cn ()) ~k:(ck ()) ~off_a:(coa ()) ~off_b:(cob ())
          ~off_c:(coc ())
      else begin
        bump_stat ctx "guarded_gemm";
        let extent_a = Tensor.store_numel sa
        and extent_b = Tensor.store_numel sb
        and extent_c = Tensor.store_numel sc in
        fun () ->
          let m = cm () and n = cn () and k = ck () in
          let off_a = coa () and off_b = cob () and off_c = coc () in
          Ir_bounds.check_gemm_spans g ~m ~n ~k ~off_a ~off_b ~off_c ~extent_a
            ~extent_b ~extent_c;
          call ~m ~n ~k ~off_a ~off_b ~off_c
      end
  | If (c, t, e) ->
      let cc = compile_c ctx benv c in
      let ct = compile_stmts ctx (Ir_bounds.assume c benv) t
      and ce = compile_stmts ctx (Ir_bounds.assume_not c benv) e in
      fun () -> if cc () then ct () else ce ()
  | For l -> (
      match ctx.runner with
      | Some r when l.parallel && not ctx.in_par -> compile_par_for ctx benv l r
      | _ -> compile_seq_for ctx benv l)

and compile_seq_for ctx benv (l : loop) =
  (* The specialized kernels access buffers unsafely for the whole
     nest, so they require a whole-nest proof; an unproven nest falls
     back to the generic path where each access carries its own
     verdict. *)
  let whole_nest_ok =
    match ctx.safety with
    | Checked -> false
    | Guard_unproven -> Ir_bounds.stmt_proven benv ~shape_of:ctx.shape_of (For l)
  in
  try
    if not whole_nest_ok then raise Not_fast;
    compile_fast_loop ctx l
  with Not_fast -> (
    let clo = compile_i ctx l.lo and chi = compile_i ctx l.hi in
    let benv' = Ir_bounds.bind_range l.var ~lo:l.lo ~hi:l.hi benv in
    let body = compile_stmts { ctx with top = false } benv' l.body in
    let vslot = slot ctx l.var in
    let regs = ctx.regs in
    match (if ctx.top then ctx.token else None) with
    | Some tok ->
        fun () ->
          let lo = clo () and hi = chi () in
          for i = lo to hi - 1 do
            (match tok.cancel_reason with
            | Some r -> raise (Cancelled r)
            | None -> ());
            Array.unsafe_set regs vslot i;
            body ()
          done
    | None ->
        fun () ->
          let lo = clo () and hi = chi () in
          for i = lo to hi - 1 do
            Array.unsafe_set regs vslot i;
            body ()
          done)

(* Static interleaved chunking (§5.4.3): worker [w] of [k] executes
   iterations [lo + w, lo + w + k, ...]. The parallel body is compiled
   once per worker against a private register file (the closures bake
   register-slot reads in, so concurrent workers must not share one
   array); worker 0 reuses the parent's registers on the calling
   domain. Conflicting writes identified by [partition_parallel] are
   replayed sequentially after the barrier. *)
and compile_par_for ctx benv (l : loop) (r : par_runner) =
  match partition_parallel ctx benv l with
  | exception Par_fallback reason ->
      bump_stat ctx "par_fallback";
      ctx.schedule :=
        {
          par_var = l.var;
          par_workers = 1;
          par_replayed = [];
          par_fallback = Some reason;
        }
        :: !(ctx.schedule);
      (* Same [ctx]: an inner parallel loop may still be schedulable
         (e.g. the tile loop when the batch loop carries an extern). *)
      compile_seq_for ctx benv l
  | { split_par; split_seq; split_replayed } ->
      let k = r.workers in
      bump_stat ctx "par_loop";
      if split_seq <> [] then bump_stat ctx "par_replay";
      ctx.schedule :=
        {
          par_var = l.var;
          par_workers = k;
          par_replayed = split_replayed;
          par_fallback = None;
        }
        :: !(ctx.schedule);
      let clo = compile_i ctx l.lo and chi = compile_i ctx l.hi in
      let benv' = Ir_bounds.bind_range l.var ~lo:l.lo ~hi:l.hi benv in
      let vslot = slot ctx l.var in
      let ctx0 = { ctx with in_par = true; top = false } in
      let body0 = compile_stmts ctx0 benv' split_par in
      let others =
        Array.init (k - 1) (fun _ ->
            (* Throwaway stats and schedule: these are recompilations of
               the same statements, already accounted for by worker 0. *)
            let sub =
              {
                ctx0 with
                regs = Array.make (Array.length ctx.regs) 0;
                stats = Hashtbl.create 4;
                schedule = ref [];
              }
            in
            (sub.regs, compile_stmts sub benv' split_par))
      in
      let replay =
        match split_seq with
        | [] -> None
        | seq ->
            Some (compile_seq_for ctx0 benv { l with body = seq; parallel = false })
      in
      let parent_regs = ctx.regs in
      let nregs = Array.length parent_regs in
      (* Outermost parallel loops poll the cancellation token once per
         stride iteration, on every worker; the first worker to observe
         a cancel raises [Cancelled], which the pool re-raises on the
         caller after the barrier. *)
      let poll =
        match (if ctx.top then ctx.token else None) with
        | Some tok ->
            fun () ->
              (match tok.cancel_reason with
              | Some r -> raise (Cancelled r)
              | None -> ())
        | None -> fun () -> ()
      in
      fun () ->
        let lo = clo () and hi = chi () in
        let n = hi - lo in
        if n = 1 then begin
          (* No point waking the pool for a single iteration. *)
          poll ();
          Array.unsafe_set parent_regs vslot lo;
          body0 ()
        end
        else if n > 1 then begin
          (* Enclosing loop variables live in the parent registers;
             workers need the current values. *)
          Array.iter
            (fun (regs, _) -> Array.blit parent_regs 0 regs 0 nregs)
            others;
          r.run (fun w ->
              if w = 0 then begin
                let i = ref lo in
                while !i < hi do
                  poll ();
                  Array.unsafe_set parent_regs vslot !i;
                  body0 ();
                  i := !i + k
                done
              end
              else begin
                let regs, body = others.(w - 1) in
                let i = ref (lo + w) in
                while !i < hi do
                  poll ();
                  Array.unsafe_set regs vslot !i;
                  body ();
                  i := !i + k
                done
              end)
        end;
        match replay with Some f -> f () | None -> ()

and compile_stmts ctx benv ss =
  match List.map (compile_stmt ctx benv) ss with
  | [] -> fun () -> ()
  | [ f ] -> f
  | [ f; g ] -> fun () -> f (); g ()
  | fs ->
      let arr = Array.of_list fs in
      fun () ->
        for i = 0 to Array.length arr - 1 do
          (Array.unsafe_get arr i) ()
        done

let count_loops stmts =
  let n = ref 0 in
  let rec go s =
    match s with
    | For l -> incr n; List.iter go l.body
    | If (_, t, e) -> List.iter go t; List.iter go e
    | Store _ | Accum _ | Memset _ | Gemm _ | Fusion_barrier _ | Extern _ -> ()
  in
  List.iter go stmts;
  !n

let compile ~lookup ?store_of ?(free_vars = []) ?(safety = Guard_unproven)
    ?runner ?token stmts =
  let stmts = simplify_stmts stmts in
  let slots = collect_vars free_vars stmts in
  (* Loop collapsing allocates one fresh register per merged pair, at
     most one per For node — per distinct merged name, so recompiling
     the parallel body once per worker does not grow the bound. *)
  let headroom = count_loops stmts + 1 in
  let store_of =
    match store_of with
    | Some f -> f
    | None -> fun buf -> Tensor.store_of_f32 (lookup buf)
  in
  let shape_of buf =
    match store_of buf with
    | st -> Some (Tensor.store_shape st)
    | exception _ -> None
  in
  let runner =
    match runner with Some r when r.workers > 1 -> Some r | _ -> None
  in
  let ctx =
    {
      lookup;
      store_of;
      slots;
      regs = Array.make (Hashtbl.length slots + headroom) 0;
      stats = Hashtbl.create 8;
      safety;
      shape_of;
      runner;
      in_par = false;
      schedule = ref [];
      token;
      top = true;
      written =
        lazy
          (List.map
             (fun b -> Tensor.store_data_id (store_of b))
             (buffers_written stmts));
      shadows = ref [];
    }
  in
  let entry = compile_stmts ctx Ir_bounds.empty_env stmts in
  (* Every shadow is fresh on every run: its source may change between
     runs (a new input batch), never during one. *)
  let entry =
    match !(ctx.shadows) with
    | [] -> entry
    | shadows ->
        fun () ->
          List.iter fill_shadow shadows;
          entry ()
  in
  { entry; ctx }

let run c ?(bindings = []) () =
  (* Section-boundary check: entering a compiled section with an already
     cancelled token raises immediately, before any statement runs. *)
  (match c.ctx.token with
  | Some tok -> check_token tok
  | None -> ());
  List.iter
    (fun (v, n) -> c.ctx.regs.(slot c.ctx v) <- n)
    bindings;
  c.entry ()

let kernel_stats c =
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) c.ctx.stats [])

let schedule c = List.rev !(c.ctx.schedule)
