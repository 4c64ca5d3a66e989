exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let magic_v2 = "LATTECKPT2"
let format_version = 2

(* Sanity bounds: reject absurd metadata before allocating for it, so a
   garbage or truncated file fails fast with a descriptive error. *)
let max_name_len = 4096
let max_count = 1_000_000
let max_rank = 8

(* CRC-32 lives in the shared Crc32 module (the tuning cache validates
   its payloads with the same checksum). *)
let crc32 = Crc32.bytes

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let write_string oc s =
  output_binary_int oc (String.length s);
  output_string oc s

let write_int32 oc v =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 v;
  output_bytes oc b

let payload_of_tensor t =
  let n = Tensor.numel t in
  let bytes = Bytes.create (4 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int32_le bytes (4 * i) (Int32.bits_of_float (Tensor.get1 t i))
  done;
  bytes

let write_tensor oc name t =
  write_string oc name;
  let shape = Tensor.shape t in
  output_binary_int oc (Shape.rank shape);
  Array.iter (output_binary_int oc) shape;
  let payload = payload_of_tensor t in
  write_int32 oc (crc32 payload);
  output_bytes oc payload

let save_buffers ?(faults = Fault.none) ~lookup ~names path =
  (* Atomic write: a temp file in the same directory, fully written and
     flushed, then renamed over [path]. A crash at any point before the
     rename (the armed fault fires mid-write) leaves [path] untouched. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc magic_v2;
     output_binary_int oc format_version;
     output_binary_int oc (List.length names);
     Fault.on_checkpoint_save faults;
     List.iter (fun name -> write_tensor oc name (lookup name)) names;
     flush oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Reading: phase one parses and validates the whole file into side    *)
(* buffers; only phase two touches live tensors.                       *)
(* ------------------------------------------------------------------ *)

type entry = { name : string; dims : int array; data : float array }

let read_string path ic =
  let n = input_binary_int ic in
  if n < 0 || n > max_name_len then
    corrupt "Checkpoint: %s: invalid string length %d" path n;
  really_input_string ic n

let read_int32 ic =
  let b = Bytes.create 4 in
  really_input ic b 0 4;
  Bytes.get_int32_be b 0

let read_entry path ic =
  let name = read_string path ic in
  let rank = input_binary_int ic in
  if rank < 0 || rank > max_rank then
    corrupt "Checkpoint: %s: tensor %s has invalid rank %d" path name rank;
  let dims = Array.init rank (fun _ -> input_binary_int ic) in
  Array.iter
    (fun d ->
      if d < 0 then
        corrupt "Checkpoint: %s: tensor %s has negative dimension" path name)
    dims;
  let expected = read_int32 ic in
  let n = Array.fold_left ( * ) 1 dims in
  let bytes = Bytes.create (4 * n) in
  really_input ic bytes 0 (4 * n);
  let got = crc32 bytes in
  if not (Int32.equal expected got) then
    corrupt "Checkpoint: %s: tensor %s failed its checksum (CRC %08lx, file says %08lx)"
      path name got expected;
  let data =
    Array.init n (fun i -> Int32.float_of_bits (Bytes.get_int32_le bytes (4 * i)))
  in
  { name; dims; data }

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        let m = really_input_string ic (String.length magic_v2) in
        if not (String.equal m magic_v2) then
          corrupt "Checkpoint: %s is not a Latte checkpoint" path;
        let v = input_binary_int ic in
        if v <> format_version then
          corrupt "Checkpoint: %s: unsupported format version %d" path v;
        let count = input_binary_int ic in
        if count < 0 || count > max_count then
          corrupt "Checkpoint: %s: invalid tensor count %d" path count;
        List.init count (fun _ -> read_entry path ic)
      with End_of_file -> corrupt "Checkpoint: %s is truncated" path)

let validate_against ~lookup path entries =
  (* Resolve and shape-check every entry before any write. *)
  List.map
    (fun e ->
      let t =
        try lookup e.name
        with _ ->
          corrupt "Checkpoint: %s: program has no buffer named %s" path e.name
      in
      if not (Shape.equal (Tensor.shape t) e.dims) then
        corrupt "Checkpoint: %s: buffer %s has shape %s, file has %s" path e.name
          (Shape.to_string (Tensor.shape t))
          (Shape.to_string e.dims);
      (e, t))
    entries

let restore resolved =
  List.iter
    (fun (e, t) -> Array.iteri (fun i v -> Tensor.set1 t i v) e.data)
    resolved

(* ------------------------------------------------------------------ *)
(* Executor-level entry points                                         *)
(* ------------------------------------------------------------------ *)

let param_names exec =
  List.map
    (fun (p : Program.param) -> p.Program.value_buf)
    (Executor.program exec).Program.params

let save ?faults exec path =
  save_buffers ?faults ~lookup:(Executor.lookup exec) ~names:(param_names exec)
    path

let load exec path =
  let entries = parse_file path in
  let expected = List.sort_uniq String.compare (param_names exec) in
  let got = List.sort_uniq String.compare (List.map (fun e -> e.name) entries) in
  if expected <> got then
    corrupt
      "Checkpoint: %s: parameter set does not match this program (file has {%s}, program has {%s})"
      path (String.concat ", " got)
      (String.concat ", " expected);
  let resolved = validate_against ~lookup:(Executor.lookup exec) path entries in
  restore resolved
