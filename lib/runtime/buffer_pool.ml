type entry = { store : Tensor.store; physical : string }

type t = { tbl : (string, entry) Hashtbl.t; mutable order : string list }

let create () = { tbl = Hashtbl.create 64; order = [] }

let register t name entry =
  if Hashtbl.mem t.tbl name then
    invalid_arg (Printf.sprintf "Buffer_pool: duplicate buffer %s" name);
  Hashtbl.replace t.tbl name entry;
  t.order <- name :: t.order

let alloc t name shape =
  let tensor = Tensor.create shape in
  register t name { store = Tensor.store_of_f32 tensor; physical = name };
  tensor

let adopt t name tensor =
  register t name { store = Tensor.store_of_f32 tensor; physical = name }

let find t name =
  match Hashtbl.find_opt t.tbl name with
  | Some e -> e
  | None -> failwith (Printf.sprintf "Buffer_pool: unknown buffer %s" name)

let alias t name ~target ~shape =
  let e = find t target in
  let store = Tensor.store_reshape e.store shape in
  register t name { store; physical = e.physical };
  match Tensor.store_f32_opt store with
  | Some tensor -> tensor
  | None ->
      failwith
        (Printf.sprintf "Buffer_pool: alias %s of packed buffer %s" name target)

let store t name = (find t name).store

let lookup t name =
  let e = find t name in
  match Tensor.store_f32_opt e.store with
  | Some tensor -> tensor
  | None ->
      failwith
        (Printf.sprintf
           "Buffer_pool: %s is stored as %s, not f32 (use Buffer_pool.store)"
           name
           (Precision.any_name (Tensor.store_kind e.store)))

let mem t name = Hashtbl.mem t.tbl name

let is_f32 t name =
  match Tensor.store_f32_opt (find t name).store with
  | Some _ -> true
  | None -> false

let precision t name = Tensor.store_kind (find t name).store
let qparams t name = Tensor.store_qparams (find t name).store
let elem_bytes t name = Tensor.store_elem_bytes (find t name).store
let shape t name = Tensor.store_shape (find t name).store

let read_f32 t name = Tensor.store_to_f32 (find t name).store

let names t = List.rev t.order

let physical t name = (find t name).physical

let total_bytes t =
  List.fold_left
    (fun acc name ->
      let e = find t name in
      if String.equal e.physical name then acc + Tensor.store_bytes e.store
      else acc)
    0 (names t)

(* Rebuild [name] (and every alias of its physical block) at int8,
   re-encoding the current f32 contents. Raises [Failure] when the
   buffer is already packed. *)
let repack t name ~qparams =
  let e = find t name in
  let phys = e.physical in
  let phys_entry = find t phys in
  let src =
    match Tensor.store_f32_opt phys_entry.store with
    | Some tensor -> tensor
    | None ->
        failwith (Printf.sprintf "Buffer_pool.repack: %s is already packed" name)
  in
  let packed =
    Tensor.store_create ~qparams (Precision.Any Precision.I8) (Tensor.shape src)
  in
  Tensor.store_blit_from_f32 ~src ~dst:packed;
  List.iter
    (fun n ->
      let e' = find t n in
      if String.equal e'.physical phys then
        Hashtbl.replace t.tbl n
          { e' with
            store = Tensor.store_reshape packed (Tensor.store_shape e'.store)
          })
    (names t)

(* ------------------------------------------------------------------ *)
(* Process-level memory ledger                                         *)
(* ------------------------------------------------------------------ *)

(* Pools whose storage should count against the process memory budget
   are registered explicitly with [track] (the serving registry tracks
   every pool it compiles); [charge_external] accounts allocation that
   lives outside any pool (or injected alloc-spike faults). Admission
   control (Registry) compares [live_bytes] + a projected footprint
   against [budget] and evicts or sheds instead of over-allocating. *)

let tracked_pools : t list ref = ref []
let external_bytes_r = ref 0
let budget_r : int option ref = ref None

let track pool =
  if not (List.memq pool !tracked_pools) then
    tracked_pools := pool :: !tracked_pools

let release pool = tracked_pools := List.filter (fun p -> p != pool) !tracked_pools

let charge_external bytes =
  external_bytes_r := max 0 (!external_bytes_r + bytes)

let live_bytes () =
  List.fold_left (fun acc p -> acc + total_bytes p) !external_bytes_r
    !tracked_pools

let set_budget b =
  (match b with
  | Some n when n <= 0 ->
      invalid_arg (Printf.sprintf "Buffer_pool.set_budget: %d bytes <= 0" n)
  | _ -> ());
  budget_r := b

let budget () = !budget_r
