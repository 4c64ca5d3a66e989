(* The persisted per-(model, machine) tuning cache.

   A generic, versioned, CRC-validated store of small string payloads
   keyed by a hex digest — this module knows nothing about schedules;
   the compiler's Schedule.to_payload/of_payload do the translation.
   Tuner.tune writes entries and Pipeline.compile_pair reads them.

   One entry per file, `<key>.tune` under the cache directory:

     LATTETUNE
     version 1
     key <hex digest>
     crc <crc32 of the payload bytes, %08lx>
     <name>=<value>
     ...

   Writes are atomic (temp file + rename, the Checkpoint discipline);
   lookups validate magic, schema version, key and checksum and answer
   [None] for anything that does not check out — including files written
   by a *future* schema version, which are rejected rather than
   misparsed. A corrupt cache can therefore cost a re-tune but never an
   error or a wrong schedule. *)

let schema_version = 1
let magic = "LATTETUNE"

(* What "this machine" means for cache keying: enough to invalidate a
   cache copied across meaningfully different hosts without trying to
   fingerprint microarchitecture. *)
let machine_id () =
  Printf.sprintf "%s/%d-bit/%d-cores" Sys.os_type Sys.word_size
    (Domain.recommended_domain_count ())

let key ~fingerprint ~machine ~precision ~passes =
  Digest.to_hex
    (Digest.string (String.concat "\x00" [ fingerprint; machine; precision; passes ]))

let default_dir () =
  Filename.concat (Filename.get_temp_dir_name ()) "latte-tune-cache"

let dir () =
  match Latte_env.tune_cache () with
  | Latte_env.Off -> None
  | Latte_env.Default -> Some (default_dir ())
  | Latte_env.Path p -> Some p

let enabled () = dir () <> None

let file_of dir key = Filename.concat dir (key ^ ".tune")

let payload_string kvs =
  String.concat "" (List.map (fun (k, v) -> k ^ "=" ^ v ^ "\n") kvs)

let store ~dir ~key kvs =
  List.iter
    (fun (k, v) ->
      if k = "" || String.contains k '=' || String.contains k '\n'
         || String.contains v '\n' then
        invalid_arg
          (Printf.sprintf "Tune_cache.store: invalid payload entry %S=%S" k v))
    kvs;
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let payload = payload_string kvs in
  let path = file_of dir key in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Printf.fprintf oc "%s\nversion %d\nkey %s\ncrc %08lx\n" magic
       schema_version key (Crc32.string payload);
     output_string oc payload;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let lookup ~dir ~key =
  let path = file_of dir key in
  if not (Sys.file_exists path) then None
  else
    let contents =
      try
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with Sys_error _ | End_of_file -> ""
    in
    match String.split_on_char '\n' contents with
    | m :: v :: k :: c :: payload when m = magic -> (
        let field prefix line =
          let pl = String.length prefix in
          if String.length line > pl && String.sub line 0 pl = prefix then
            Some (String.sub line pl (String.length line - pl))
          else None
        in
        match (field "version " v, field "key " k, field "crc " c) with
        | Some ver, Some file_key, Some crc_hex
          when int_of_string_opt ver = Some schema_version && file_key = key ->
            let payload = String.concat "\n" payload in
            let ok_crc =
              match Int32.of_string_opt ("0x" ^ crc_hex) with
              | Some expect -> Int32.equal expect (Crc32.string payload)
              | None -> false
            in
            if not ok_crc then None
            else
              Some
                (String.split_on_char '\n' payload
                |> List.filter_map (fun line ->
                       match String.index_opt line '=' with
                       | Some i ->
                           Some
                             ( String.sub line 0 i,
                               String.sub line (i + 1)
                                 (String.length line - i - 1) )
                       | None -> None))
        | _ -> None)
    | _ -> None
