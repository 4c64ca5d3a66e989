(* The first-class schedule: a per-section override of the compiler's
   scalar scheduling knobs. Where Config.t says "tile every anchor to
   ~tile_size rows", a schedule can say "tile group `conv1+relu1' to 8
   rows, leave `ip1' unfused, run 2 domains". Group labels are the same
   "+"-joined ensemble names the fuse pass gives its sections, so a
   schedule is readable against `latte dump-ir' output.

   Schedules are value-semantic and canonically comparable: [describe]
   sorts its parts, [digest]/[equal] derive from it, and the payload
   round-trip through the tuning cache preserves equality. *)

type source = Cache | Explicit

type t = {
  tiles : (string * int) list;
  fuse_off : string list;
  domains : int option;
  source : source;
}

let empty = { tiles = []; fuse_off = []; domains = None; source = Explicit }
let is_empty t = t.tiles = [] && t.fuse_off = [] && t.domains = None

let with_tile label rows t =
  { t with tiles = (label, rows) :: List.remove_assoc label t.tiles }

let without_fusion label t =
  if List.mem label t.fuse_off then t
  else { t with fuse_off = t.fuse_off @ [ label ] }

let with_domains n t = { t with domains = Some n }

let tile_for t label = List.assoc_opt label t.tiles
let fused t label = not (List.mem label t.fuse_off)
let tile_labels t = List.map fst t.tiles

let source_name t = match t.source with Cache -> "cache" | Explicit -> "explicit"

let describe t =
  let tiles = List.sort (fun (a, _) (b, _) -> compare a b) t.tiles in
  let parts =
    List.map (fun (l, n) -> Printf.sprintf "tile(%s)=%d" l n) tiles
    @ List.map (fun l -> Printf.sprintf "nofuse(%s)" l) (List.sort compare t.fuse_off)
    @
    match t.domains with
    | None -> []
    | Some d -> [ Printf.sprintf "domains=%d" d ]
  in
  if parts = [] then "default" else String.concat " " parts

let digest t = String.sub (Digest.to_hex (Digest.string (describe t))) 0 8

(* Canonical-form equality; [source] records provenance, not content,
   and is deliberately ignored. *)
let equal a b = String.equal (describe a) (describe b)

let sanitize t =
  let warnings = ref [] in
  let tiles =
    List.filter
      (fun (l, n) ->
        if n < 1 then begin
          warnings :=
            Printf.sprintf
              "schedule: tile target %d for group `%s' is < 1; dropping the \
               entry (the static heuristic applies)"
              n l
            :: !warnings;
          false
        end
        else true)
      t.tiles
  in
  ({ t with tiles }, List.rev !warnings)

(* ------------------------------------------------------------------ *)
(* Tuning-cache payload translation                                    *)
(* ------------------------------------------------------------------ *)

let to_payload t =
  List.map (fun (l, n) -> ("tile." ^ l, string_of_int n)) t.tiles
  @ List.mapi (fun i l -> (Printf.sprintf "nofuse.%d" i, l)) t.fuse_off
  @
  match t.domains with
  | None -> []
  | Some d -> [ ("domains", string_of_int d) ]

let of_payload kvs =
  let has_prefix p s =
    String.length s > String.length p && String.sub s 0 (String.length p) = p
  in
  let strip p s = String.sub s (String.length p) (String.length s - String.length p) in
  List.fold_left
    (fun acc (k, v) ->
      if has_prefix "tile." k then
        (match int_of_string_opt v with
        | Some n when n >= 1 -> with_tile (strip "tile." k) n acc
        | _ -> acc)
      else if has_prefix "nofuse." k then without_fusion v acc
      else if k = "domains" then
        (match int_of_string_opt v with
        | Some d when d >= 1 -> with_domains d acc
        | _ -> acc)
      else acc (* unknown names: forward-compatible skip *))
    { empty with source = Cache }
    kvs
