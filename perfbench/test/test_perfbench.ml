(* The benchmark's own logic: seeded inputs, the serving driver's
   latency accounting, the percentile helper, span self times and the
   metric names against BENCHMARK.json. *)

open Perfbench

(* ---- A minimal JSON reader, enough for BENCHMARK.json ------------ *)

type json = Obj of (string * json) list | Arr of json list | Str of string | Num of float | Lit of string

let parse_json s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let rec ws () = if !pos < String.length s && String.contains " \n\r\t" (peek ()) then (incr pos; ws ()) in
  let expect c = ws (); if peek () <> c then failwith (Printf.sprintf "expected %c at %d" c !pos); incr pos in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        let rec fields acc =
          ws ();
          if peek () = '}' then (incr pos; List.rev acc)
          else begin
            if acc <> [] then expect ',';
            let k = str () in
            expect ':';
            let v = value () in
            fields ((k, v) :: acc)
          end
        in
        Obj (fields [])
    | '[' ->
        incr pos;
        let rec items acc =
          ws ();
          if peek () = ']' then (incr pos; List.rev acc)
          else begin
            if acc <> [] then expect ',';
            items (value () :: acc)
          end
        in
        Arr (items [])
    | '"' -> Str (str ())
    | _ ->
        let start = !pos in
        while !pos < String.length s && not (String.contains ",}] \n\r\t" (peek ())) do incr pos done;
        let tok = String.sub s start (!pos - start) in
        (match float_of_string_opt tok with Some f -> Num f | None -> Lit tok)
  in
  value ()

let field k = function Obj l -> List.assoc k l | _ -> failwith ("not an object at " ^ k)
let str = function Str s -> s | _ -> failwith "not a string"
let arr = function Arr l -> l | _ -> failwith "not an array"

let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse_json s

(* A small f32 fleet that runs the serving driver in milliseconds: two
   MLPs, a high rate and a short window. *)
let mlp_fixture =
  let mlp () = Models.mlp ~batch:Serve.batch ~n_inputs:64 ~hidden:[ 32; 16 ] ~n_classes:10 in
  { Serve.name = "mlp-fixture"; models = [ ("mlp-a", mlp); ("mlp-b", mlp) ]; precision = `F32;
    rate = 3000.0; window = 2e-3; limit = 25e-3; check_sample = 256; closed_rate = 10_000.0 }

(* ---- Seeded inputs ----------------------------------------------- *)

let test_inputs_are_seeded () =
  let a () = Serve.arrivals ~seed:7 ~rate:3000.0 ~duration:0.5 ~models:2 in
  let x = a () and y = a () in
  Alcotest.(check bool) "same seed, same arrivals" true (x = y);
  let n = Array.length x.Serve.due in
  Alcotest.(check bool) (Printf.sprintf "about 1500 arrivals (%d)" n) true (n > 1300 && n < 1700);
  let z = Serve.arrivals ~seed:8 ~rate:3000.0 ~duration:0.5 ~models:2 in
  Alcotest.(check bool) "another seed, other arrivals" false (x.Serve.due = z.Serve.due);
  let f seed = Serve.features ~seed ~numel:64 5 in
  Alcotest.(check bool) "same seed, same features" true (f 7 = f 7);
  Alcotest.(check bool) "another seed, other features" false (f 7 = f 8);
  let batch seed =
    let img, lab = Train_vgg.make_batch (Prng.create ~stream:1 seed) ~item:12 ~classes:3 in
    (Tensor.to_array img, Tensor.to_array lab)
  in
  Alcotest.(check bool) "same seed, same batch" true (batch 7 = batch 7);
  Alcotest.(check bool) "another seed, other batch" false (batch 7 = batch 8)

(* ---- A stall inside one pump ------------------------------------- *)

(* On a fake clock, pumps take 0.2 ms except one that stalls for 10 ms.
   Every request that fell due during the stalled pump is submitted
   only after it, so its latency covers the rest of the stall. *)
let test_stall_counts_against_latency () =
  Host.pin_environment ();
  let p = mlp_fixture in
  let tr = Trace.create ~enabled:false in
  let fleet, numel = Serve.setup tr p ~seed:3 in
  let vt = ref 100.0 in
  let clock = { Serve.now = (fun () -> !vt); wait_until = (fun t -> if t > !vt then vt := t) } in
  let pumps = ref 0 and stall = ref (0.0, 0.0) in
  let pump f =
    let start = !vt in
    let r = Fleet.pump f in
    incr pumps;
    vt := !vt +. 2e-4;
    if !pumps = 40 then begin
      vt := !vt +. 10e-3;
      stall := (start, !vt)
    end;
    r
  in
  let a = Serve.arrivals ~seed:3 ~rate:p.Serve.rate ~duration:0.2 ~models:2 in
  let n = Array.length a.Serve.due in
  let d = Serve.driver ~clock ~pump p tr ~seed:3 ~numel ~open_requests:n fleet in
  let t0 = !vt in
  Serve.open_loop d a ~first:0 ~last:n ~from:0.0;
  let s, e = !stall in
  Alcotest.(check bool) "the stall happened" true (e > s);
  let during = ref 0 in
  Array.iteri
    (fun i due ->
      let due = t0 +. due and lat = d.Serve.latency.(i) in
      if due > s && due < e then begin
        incr during;
        if lat < e -. due -. 1e-9 then
          Alcotest.failf "request %d fell due %.2f ms into the stall but waited only %.2f ms" i
            ((due -. s) *. 1e3) (lat *. 1e3)
      end
      else if due < s -. 20e-3 && lat > 5e-3 then
        Alcotest.failf "request %d, due before the stall, waited %.2f ms" i (lat *. 1e3))
    a.Serve.due;
  Alcotest.(check bool) (Printf.sprintf "requests fell due during the stall (%d)" !during) true (!during >= 10)

(* ---- Percentiles ------------------------------------------------- *)

let test_tail_percentile () =
  let case n want =
    Alcotest.(check (option (pair (float 0.0) int))) (string_of_int n)
      (Option.map (fun p -> (p, n)) want) (Stats.tail_percentile n)
  in
  case 10_000 (Some 99.9);
  case 9_999 (Some 99.0);
  case 1_000 (Some 99.0);
  case 999 (Some 95.0);
  case 200 (Some 95.0);
  case 199 (Some 90.0);
  case 100 (Some 90.0);
  case 99 (Some 75.0);
  case 40 (Some 75.0);
  case 39 (Some 50.0);
  case 20 (Some 50.0);
  case 19 None;
  let a = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 1e-9)) "median" 50.5 (Stats.median a);
  Alcotest.(check (float 1e-9)) "p99" 99.01 (Stats.percentile a 99.0)

(* ---- Self time ---------------------------------------------------- *)

let test_self_time () =
  let t = Trace.create ~enabled:true in
  let span ?parent a b name =
    let id = Trace.open_ t ?parent ~at:a name in
    Trace.close t ~at:b id;
    id
  in
  let root = span 0.0 10.0 "root" in
  let a = span ~parent:root 1.0 4.0 "a" in
  let _b = span ~parent:root 3.0 6.0 "b" in  (* overlaps a *)
  let _c = span ~parent:root 8.0 12.0 "c" in  (* runs past its parent *)
  let _g = span ~parent:a 2.0 3.0 "g" in
  let v = Trace.view t in
  let self name = (Trace.self_of v name).(0) in
  (* root: 10 minus [1,6] and [8,10] *)
  Alcotest.(check (float 1e-12)) "root" 3.0 (self "root");
  Alcotest.(check (float 1e-12)) "a" 2.0 (self "a");
  Alcotest.(check (float 1e-12)) "b" 3.0 (self "b");
  Alcotest.(check (float 1e-12)) "c" 4.0 (self "c");
  Alcotest.(check (float 1e-12)) "g" 1.0 (self "g");
  let off = Trace.create ~enabled:false in
  Alcotest.(check int) "disabled tracer records nothing" 0
    (Trace.span off "x" (fun _ -> Array.length (Trace.spans off)))

(* ---- Metric names ------------------------------------------------- *)

let valid_name n =
  n <> ""
  && String.for_all
       (fun c -> match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

let declared j key =
  List.map
    (fun m ->
      ( str (field "name" m),
        (str (field "unit" m), match str (field "better" m) with "higher" -> Metrics.Higher | _ -> Metrics.Lower) ))
    (arr (field key j))

let test_names_declared () =
  let j = benchmark_json () in
  let check_list key decls =
    let json = declared j key in
    List.iter
      (fun (m : Metrics.decl) ->
        if not (valid_name m.Metrics.name) then Alcotest.failf "bad metric name %S" m.Metrics.name;
        match List.assoc_opt m.Metrics.name json with
        | Some (u, b) when u = m.Metrics.unit && b = m.Metrics.better -> ()
        | Some _ -> Alcotest.failf "%s: unit or direction differs from BENCHMARK.json" m.Metrics.name
        | None -> Alcotest.failf "%s is not declared in BENCHMARK.json %s" m.Metrics.name key)
      decls;
    Alcotest.(check int) (key ^ " count") (List.length json) (List.length decls)
  in
  check_list "end_to_end" Metrics.end_to_end;
  check_list "per_layer" Metrics.per_layer;
  (* Every name a run prints: a short serve-mlp run on a fake clock,
     traced, through the same result line the benchmark prints. *)
  Host.pin_environment ();
  let vt = ref 0.0 in
  let clock = { Serve.now = (fun () -> !vt); wait_until = (fun t -> if t > !vt then vt := t) } in
  let pump f = vt := !vt +. 5e-4; Fleet.pump f in
  let r = Serve.run ~clock ~pump mlp_fixture (Trace.create ~enabled:true) ~seed:1 ~seconds:0.05 in
  Alcotest.(check (list string)) "checks pass" [] r.Workload.check_failures;
  Alcotest.(check (list string)) "finite end-to-end metrics" [] (Metrics.non_finite r.Workload.e2e);
  ignore (Metrics.result_line ~correct:true ~attempted:1 ~failed:0 Metrics.end_to_end r.Workload.e2e);
  ignore
    (Metrics.result_line ~correct:true ~attempted:1 ~failed:0 Metrics.per_layer
       (Metrics.layer_values r.Workload.layers))

(* Every declared workload runs, and the parameters it runs with are
   recorded in its [why]. *)
let test_parameters_recorded () =
  let j = benchmark_json () in
  List.iter
    (fun w ->
      let name = str (field "name" w) and why = str (field "why" w) in
      if not (List.mem_assoc name Workload_list.all) then Alcotest.failf "%s: no such workload" name;
      let mentions s =
        let rec go i =
          i + String.length s <= String.length why && (String.sub why i (String.length s) = s || go (i + 1))
        in
        if not (go 0) then Alcotest.failf "%s: why does not mention %S: %s" name s why
      in
      if name = Serve.int8_params.Serve.name then begin
        let p = Serve.int8_params in
        mentions (Printf.sprintf "batch %d" Serve.batch);
        mentions (Printf.sprintf "%g req/s" p.Serve.rate);
        mentions (Printf.sprintf "%g ms window" (p.Serve.window *. 1e3));
        mentions (Printf.sprintf "%g ms limit" (p.Serve.limit *. 1e3))
      end
      else begin
        mentions (Printf.sprintf "batch %d" Train_vgg.batch);
        mentions (Printf.sprintf "%d domains" Train_vgg.domains)
      end)
    (arr (field "workloads" j))

(* ---- The int8 top-1 check and non-finite metrics ---------------- *)

let test_top1_verdict () =
  let verdict = Alcotest.testable (fun f v ->
      Format.pp_print_string f (match v with Serve.Agree -> "agree" | Disagree -> "disagree" | Near_tie -> "near-tie"))
      ( = )
  in
  let check what want ~served ~f32 = Alcotest.check verdict what want (Serve.top1 ~served ~want:f32) in
  check "same class" Serve.Agree ~served:[| 0.1; 0.5; 0.4 |] ~f32:[| 0.1; 0.45; 0.44 |];
  check "other class, clear f32 winner" Serve.Disagree ~served:[| 0.1; 0.4; 0.5 |] ~f32:[| 0.1; 0.45; 0.44 |];
  check "other class, near-tie" Serve.Near_tie ~served:[| 0.1; 0.4; 0.5 |] ~f32:[| 0.1; 0.445; 0.4445 |];
  check "same class, near-tie" Serve.Near_tie ~served:[| 0.1; 0.5; 0.4 |] ~f32:[| 0.1; 0.445; 0.4445 |];
  Alcotest.(check (list string)) "non-finite values named" [ "b"; "c" ]
    (Metrics.non_finite [ ("a", 1.0); ("b", Float.nan); ("c", Float.infinity); ("d", 0.0) ]);
  let line =
    Metrics.result_line ~correct:false ~attempted:1 ~failed:0 [ List.hd Metrics.end_to_end ]
      [ ((List.hd Metrics.end_to_end).Metrics.name, Float.nan) ]
  in
  let has s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("NaN prints as null: " ^ line) true (has line "\"value\": null")

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "inputs are a function of the seed" `Quick test_inputs_are_seeded;
          Alcotest.test_case "a stalled pump delays what fell due" `Quick test_stall_counts_against_latency;
          Alcotest.test_case "tail percentile and sample count" `Quick test_tail_percentile;
          Alcotest.test_case "self time on a span tree" `Quick test_self_time;
          Alcotest.test_case "metric names declared" `Quick test_names_declared;
          Alcotest.test_case "declared workloads and their parameters" `Quick test_parameters_recorded;
          Alcotest.test_case "int8 top-1 verdicts and non-finite metrics" `Quick test_top1_verdict ] ) ]
