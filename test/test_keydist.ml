(* Tests for the shared key-distribution module: pinned LRU hit counts of
   the Hotset stream (the Keydist extraction must not move a single draw),
   distribution shape properties, and the CLI spec parser. *)

module Keydist = Hcsgc_workloads.Keydist
module Rng = Hcsgc_util.Rng

let check = Alcotest.check
let case = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Pinned LRU goldens: captured on the pre-extraction tree from the LRU
   cache service that first drew this stream.  A reference LRU fed the
   Hotset keys must reproduce its hit and eviction counts, so any change
   in RNG consumption (an extra draw, a reordered draw) shows up here.   *)
(* ------------------------------------------------------------------ *)

(* Hits, misses and evictions of an LRU cache of [capacity] entries over
   [operations] Hotset draws (bias 0.85). *)
let lru_counts ~seed ~capacity ~operations ~key_space ~hot_keys =
  let dist =
    Keydist.create (Keydist.Hotset { hot_keys; hot_bias = 0.85 }) ~key_space
  in
  let rng = Rng.create seed in
  (* key -> time of last use; [order] holds (key, time) oldest first, and
     an entry is stale once its key has been used again or evicted. *)
  let last_use = Hashtbl.create 1024 and order = Queue.create () in
  let hits = ref 0 and evictions = ref 0 in
  for t = 1 to operations do
    let key = Keydist.sample dist rng in
    if Hashtbl.mem last_use key then incr hits
    else if Hashtbl.length last_use >= capacity then begin
      let rec evict () =
        let k, used = Queue.pop order in
        if Hashtbl.find_opt last_use k = Some used then begin
          Hashtbl.remove last_use k;
          incr evictions
        end
        else evict ()
      in
      evict ()
    end;
    Hashtbl.replace last_use key t;
    Queue.push (key, t) order
  done;
  (!hits, operations - !hits, !evictions)

let lru_golden ~seed ~hits ~puts ~evictions () =
  check
    (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
    "hits, puts, evictions" (hits, puts, evictions)
    (lru_counts ~seed ~capacity:200 ~operations:8_000 ~key_space:1_000
       ~hot_keys:100)

let lru_pinned_seed0 () =
  lru_golden ~seed:0 ~hits:6929 ~puts:1071 ~evictions:871 ()

let lru_pinned_seed7 () =
  lru_golden ~seed:7 ~hits:6945 ~puts:1055 ~evictions:855 ()

let lru_pinned_default () =
  check
    (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
    "hits, puts, evictions" (128_523, 21_477, 1_477)
    (lru_counts ~seed:0 ~capacity:20_000 ~operations:150_000
       ~key_space:60_000 ~hot_keys:4_000)

(* The Hotset sampler must consume the RNG exactly like the historical
   inline generator: one float draw, then one int draw. *)
let hotset_matches_inline_formula () =
  let key_space = 1_000 and hot_keys = 100 and hot_bias = 0.85 in
  let dist =
    Keydist.create (Keydist.Hotset { hot_keys; hot_bias }) ~key_space
  in
  let a = Rng.create 42 and b = Rng.create 42 in
  for i = 1 to 10_000 do
    let expected =
      if Rng.float b 1.0 < hot_bias then
        Rng.int b (max 1 hot_keys) * 31 mod key_space
      else Rng.int b key_space
    in
    check Alcotest.int (Printf.sprintf "draw %d" i) expected
      (Keydist.sample dist a)
  done

(* ------------------------------------------------------------------ *)
(* Distribution shape                                                  *)
(* ------------------------------------------------------------------ *)

let in_range_forall spec =
  let key_space = 257 in
  let dist = Keydist.create spec ~key_space in
  let rng = Rng.create 1 in
  for _ = 1 to 20_000 do
    let k = Keydist.sample dist rng in
    if k < 0 || k >= key_space then
      Alcotest.failf "key %d outside [0, %d)" k key_space
  done

let all_in_range () =
  List.iter in_range_forall
    [
      Keydist.Uniform;
      Keydist.Hotset { hot_keys = 31; hot_bias = 0.9 };
      Keydist.Zipfian { theta = 0.99 };
      Keydist.Zipfian { theta = 0.0 };
      Keydist.Sequential { stride = 13 };
    ]

let deterministic () =
  let go () =
    let dist = Keydist.create (Keydist.Zipfian { theta = 0.99 }) ~key_space:10_000 in
    let rng = Rng.create 5 in
    List.init 1_000 (fun _ -> Keydist.sample dist rng)
  in
  check (Alcotest.list Alcotest.int) "same seed, same stream" (go ()) (go ())

let zipfian_skew () =
  (* With theta = 0.99 over 10k keys, rank 0 must dominate: it should draw
     more than 5% of samples, and the head must beat the tail heavily. *)
  let n = 10_000 in
  let dist = Keydist.create (Keydist.Zipfian { theta = 0.99 }) ~key_space:n in
  let rng = Rng.create 3 in
  let counts = Array.make n 0 in
  let samples = 100_000 in
  for _ = 1 to samples do
    let k = Keydist.sample dist rng in
    counts.(k) <- counts.(k) + 1
  done;
  let head = ref 0 and tail = ref 0 in
  for k = 0 to 99 do
    head := !head + counts.(k)
  done;
  for k = n - 5_000 to n - 1 do
    tail := !tail + counts.(k)
  done;
  check Alcotest.bool "rank 0 above 5%" true
    (float_of_int counts.(0) /. float_of_int samples > 0.05);
  check Alcotest.bool "top-100 ranks above 50%" true
    (float_of_int !head /. float_of_int samples > 0.5);
  check Alcotest.bool "head (100 keys) beats tail (5000 keys)" true (!head > !tail)

let zipfian_theta0_roughly_uniform () =
  (* theta = 0 degenerates to uniform: top-1% of ranks should take about
     1% of the samples, far from Zipf head mass. *)
  let n = 1_000 in
  let dist = Keydist.create (Keydist.Zipfian { theta = 0.0 }) ~key_space:n in
  let rng = Rng.create 9 in
  let counts = Array.make n 0 in
  let samples = 100_000 in
  for _ = 1 to samples do
    let k = Keydist.sample dist rng in
    counts.(k) <- counts.(k) + 1
  done;
  let head = ref 0 in
  for k = 0 to 9 do
    head := !head + counts.(k)
  done;
  check Alcotest.bool "top-1% below 3% of samples" true
    (float_of_int !head /. float_of_int samples < 0.03)

let sequential_cycles () =
  let dist = Keydist.create (Keydist.Sequential { stride = 3 }) ~key_space:7 in
  let rng = Rng.create 0 in
  let got = List.init 8 (fun _ -> Keydist.sample dist rng) in
  check (Alcotest.list Alcotest.int) "stride-3 cycle over 7 keys"
    [ 0; 3; 6; 2; 5; 1; 4; 0 ] got

let uniform_matches_rng_int () =
  let dist = Keydist.create Keydist.Uniform ~key_space:997 in
  let a = Rng.create 11 and b = Rng.create 11 in
  for _ = 1 to 1_000 do
    check Alcotest.int "one Rng.int per sample" (Rng.int b 997)
      (Keydist.sample dist a)
  done

(* ------------------------------------------------------------------ *)
(* Spec parsing and keys                                               *)
(* ------------------------------------------------------------------ *)

let parse_roundtrip () =
  let ok s spec =
    match Keydist.spec_of_string s with
    | Ok got ->
        check Alcotest.bool (Printf.sprintf "parse %S" s) true (got = spec)
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  ok "uniform" Keydist.Uniform;
  ok "zipf" (Keydist.Zipfian { theta = 0.99 });
  ok "zipf:0.5" (Keydist.Zipfian { theta = 0.5 });
  ok "seq" (Keydist.Sequential { stride = 1 });
  ok "seq:16" (Keydist.Sequential { stride = 16 });
  ok "hotset:400,0.9" (Keydist.Hotset { hot_keys = 400; hot_bias = 0.9 });
  List.iter
    (fun s ->
      match Keydist.spec_of_string s with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
      | Error _ -> ())
    [ "zipfian"; "zipf:1.5"; "seq:0"; "hotset:0,0.5"; "hotset:nope"; "" ]

let spec_keys_distinct () =
  let keys =
    List.map
      (fun spec -> Keydist.spec_key spec)
      [
        Keydist.Uniform;
        Keydist.Hotset { hot_keys = 10; hot_bias = 0.9 };
        Keydist.Hotset { hot_keys = 10; hot_bias = 0.8 };
        Keydist.Hotset { hot_keys = 20; hot_bias = 0.9 };
        Keydist.Zipfian { theta = 0.99 };
        Keydist.Zipfian { theta = 0.5 };
        Keydist.Sequential { stride = 1 };
        Keydist.Sequential { stride = 2 };
      ]
  in
  check Alcotest.int "all spec keys distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let create_validates () =
  let invalid f = Alcotest.check_raises "invalid" (Invalid_argument "") f in
  let invalid f =
    ignore invalid;
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  invalid (fun () -> Keydist.create Keydist.Uniform ~key_space:0);
  invalid (fun () ->
      Keydist.create (Keydist.Hotset { hot_keys = 0; hot_bias = 0.5 })
        ~key_space:10);
  invalid (fun () ->
      Keydist.create (Keydist.Hotset { hot_keys = 5; hot_bias = 1.5 })
        ~key_space:10);
  invalid (fun () ->
      Keydist.create (Keydist.Zipfian { theta = 1.0 }) ~key_space:10);
  invalid (fun () ->
      Keydist.create (Keydist.Sequential { stride = 0 }) ~key_space:10)

let suite =
  [
    ( "workloads.keydist",
      [
        case "lru pinned golden (seed 0)" `Quick lru_pinned_seed0;
        case "lru pinned golden (seed 7)" `Quick lru_pinned_seed7;
        case "lru pinned golden (default parameters)" `Quick
          lru_pinned_default;
        case "hotset = historical inline formula" `Quick
          hotset_matches_inline_formula;
        case "all kinds stay in range" `Quick all_in_range;
        case "deterministic per seed" `Quick deterministic;
        case "zipfian skew" `Quick zipfian_skew;
        case "zipfian theta=0 ~ uniform" `Quick zipfian_theta0_roughly_uniform;
        case "sequential cycles" `Quick sequential_cycles;
        case "uniform = one Rng.int" `Quick uniform_matches_rng_int;
        case "spec parser" `Quick parse_roundtrip;
        case "spec keys distinct" `Quick spec_keys_distinct;
        case "create validates" `Quick create_validates;
      ] );
  ]
