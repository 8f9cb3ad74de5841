(* Tests for hcsgc.util: PRNG, bitmaps, growable vectors. *)

module Rng = Hcsgc_util.Rng
module Bitmap = Hcsgc_util.Bitmap
module Vec = Hcsgc_util.Vec
module Int_tbl = Hcsgc_util.Int_tbl
module Int_sort = Hcsgc_util.Int_sort
module Alloc_meter = Hcsgc_util.Alloc_meter

let check = Alcotest.check
let case = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.next a) (Rng.next b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.next a <> Rng.next b then differs := true
  done;
  check Alcotest.bool "different seeds diverge" true !differs

let rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check Alcotest.bool "0 <= v < 17" true (v >= 0 && v < 17)
  done

let rng_int_in () =
  let rng = Rng.create 11 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng (-5) 5 in
    check Alcotest.bool "in [-5,5]" true (v >= -5 && v <= 5)
  done

let rng_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    check Alcotest.bool "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let rng_copy_independent () =
  let a = Rng.create 9 in
  ignore (Rng.next a);
  let b = Rng.copy a in
  check Alcotest.int "copy continues identically" (Rng.next a) (Rng.next b);
  ignore (Rng.next a);
  (* advancing one does not advance the other *)
  let va = Rng.next a and vb = Rng.next b in
  check Alcotest.bool "streams now offset" true (va <> vb || Rng.next a <> vb)

let rng_split_diverges () =
  let a = Rng.create 13 in
  let b = Rng.split a in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.next a <> Rng.next b then differs := true
  done;
  check Alcotest.bool "split stream differs from parent" true !differs

let rng_uniformity_rough () =
  (* Chi-square-ish sanity: 10 buckets over 100k draws should each hold
     within 20% of the expected count. *)
  let rng = Rng.create 1234 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      check Alcotest.bool "bucket within 20% of mean" true
        (abs (c - (n / 10)) < n / 50))
    buckets

let rng_shuffle_is_permutation () =
  let rng = Rng.create 99 in
  let arr = Array.init 100 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation"
    (Array.init 100 (fun i -> i))
    sorted

let rng_exponential_positive () =
  let rng = Rng.create 21 in
  for _ = 1 to 1_000 do
    check Alcotest.bool "exponential >= 0" true (Rng.exponential rng 5.0 >= 0.0)
  done

let rng_exponential_mean () =
  let rng = Rng.create 22 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 3.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean close to 3.0" true (Float.abs (mean -. 3.0) < 0.15)

let rng_invalid_bound () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

(* The SplitMix64 stream for seed 42, as the generator produced it when
   its state was a boxed [int64]: a change of representation must not
   move a single draw. *)
let rng_stream_pinned () =
  let ints = Alcotest.(list int) in
  let draws n f = List.init n (fun _ -> f ()) in
  let r = Rng.create 42 in
  check ints "next"
    [ 3419864383188818853; 737456523031723072; 1284820937115690964;
      1587299515064563941 ]
    (draws 4 (fun () -> Rng.next r));
  let r = Rng.create 42 in
  check ints "int 1000" [ 853; 72; 964; 941 ]
    (draws 4 (fun () -> Rng.int r 1000));
  let r = Rng.create 42 in
  check ints "int_in -5 5" [ -3; 1; -5; -2 ]
    (draws 4 (fun () -> Rng.int_in r (-5) 5));
  let r = Rng.create 42 in
  check
    Alcotest.(list string)
    "float 1.0"
    [ "0x1.7bae644c5fd6dp-1"; "0x1.477f199d93378p-3"; "0x1.1d499d5c4c3e6p-2" ]
    (draws 3 (fun () -> Printf.sprintf "%h" (Rng.float r 1.0)));
  let r = Rng.create 42 in
  check
    Alcotest.(list bool)
    "bool"
    [ true; true; false; false; false; false; true; false ]
    (draws 8 (fun () -> Rng.bool r));
  let r = Rng.create 42 in
  let c = Rng.split r in
  check ints "split child"
    [ 1784603859227254737; 4248825765098945364; 383306467946929574 ]
    (draws 3 (fun () -> Rng.next c));
  check Alcotest.int "split advances the parent by one draw"
    737456523031723072 (Rng.next r);
  check Alcotest.int "seed -1" 4122584066742110984 (Rng.next (Rng.create (-1)));
  check Alcotest.int "int max_int" 1797772400223093621
    (Rng.int (Rng.create 7) max_int)

(* The hot draws keep the state unboxed: no word allocated per call. *)
let rng_draws_allocate_nothing () =
  let r = Rng.create 5 in
  let sink = ref 0 in
  let measure name f =
    let ovh = Alloc_meter.overhead_per_call () in
    let a0 = Alloc_meter.words () in
    for i = 1 to 100_000 do
      sink := !sink + f i
    done;
    check (Alcotest.float 0.0) (name ^ ": words for 100k draws") 0.0
      (Alloc_meter.words () -. a0 -. ovh)
  in
  measure "next" (fun _ -> Rng.next r);
  measure "int" (fun i -> Rng.int r (1 + (i land 1023)));
  measure "int_in" (fun i -> Rng.int_in r (-i) i);
  measure "bool" (fun _ -> Bool.to_int (Rng.bool r));
  ignore (Sys.opaque_identity !sink)

(* ------------------------------------------------------------------ *)
(* Int_sort                                                            *)
(* ------------------------------------------------------------------ *)

let prop_int_sort_matches_array_sort =
  QCheck.Test.make ~name:"int_sort: = Array.sort compare" ~count:500
    QCheck.(
      array_of_size Gen.(oneof [ return 0; int_bound 8; int_bound 300 ])
        (oneof [ int_range (-20) 20; int ]))
    (fun a ->
      let expected = Array.copy a and got = Array.copy a in
      Array.sort compare expected;
      Int_sort.sort got;
      got = expected)

(* ------------------------------------------------------------------ *)
(* Bitmap                                                              *)
(* ------------------------------------------------------------------ *)

let bitmap_basic () =
  let b = Bitmap.create 100 in
  check Alcotest.int "length" 100 (Bitmap.length b);
  check Alcotest.bool "initially clear" false (Bitmap.get b 42);
  Bitmap.set b 42;
  check Alcotest.bool "set" true (Bitmap.get b 42);
  Bitmap.clear b 42;
  check Alcotest.bool "cleared" false (Bitmap.get b 42)

let bitmap_test_and_set () =
  let b = Bitmap.create 8 in
  check Alcotest.bool "first returns false" false (Bitmap.test_and_set b 3);
  check Alcotest.bool "second returns true" true (Bitmap.test_and_set b 3)

let bitmap_reset () =
  let b = Bitmap.create 64 in
  for i = 0 to 63 do
    Bitmap.set b i
  done;
  check Alcotest.int "all set" 64 (Bitmap.pop_count b);
  Bitmap.reset b;
  check Alcotest.int "all clear" 0 (Bitmap.pop_count b)

let bitmap_iter_ascending () =
  let b = Bitmap.create 200 in
  List.iter (Bitmap.set b) [ 5; 190; 64; 7; 100 ];
  let seen = ref [] in
  Bitmap.iter_set b (fun i -> seen := i :: !seen);
  check
    (Alcotest.list Alcotest.int)
    "ascending order" [ 5; 7; 64; 100; 190 ] (List.rev !seen)

let bitmap_bounds () =
  let b = Bitmap.create 10 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitmap: index out of range")
    (fun () -> ignore (Bitmap.get b (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Bitmap: index out of range")
    (fun () -> Bitmap.set b 10)

let bitmap_boundary_bits () =
  (* Bits at byte boundaries must not interfere. *)
  let b = Bitmap.create 17 in
  Bitmap.set b 7;
  Bitmap.set b 8;
  Bitmap.set b 16;
  check Alcotest.bool "bit 7" true (Bitmap.get b 7);
  check Alcotest.bool "bit 8" true (Bitmap.get b 8);
  check Alcotest.bool "bit 9 untouched" false (Bitmap.get b 9);
  check Alcotest.bool "bit 16" true (Bitmap.get b 16);
  check Alcotest.int "pop count" 3 (Bitmap.pop_count b)

let bitmap_fold () =
  let b = Bitmap.create 32 in
  List.iter (Bitmap.set b) [ 1; 2; 30 ];
  let sum = Bitmap.fold_set b ~init:0 ~f:( + ) in
  check Alcotest.int "fold sum" 33 sum

(* QCheck properties. *)

let prop_bitmap_set_get =
  QCheck.Test.make ~name:"bitmap: set then get" ~count:200
    QCheck.(pair (int_bound 500) (list (int_bound 500)))
    (fun (extra, indices) ->
      let size = 501 in
      let b = Bitmap.create size in
      List.iter (fun i -> Bitmap.set b i) indices;
      List.for_all (fun i -> Bitmap.get b i) indices
      && (List.mem extra indices || not (Bitmap.get b extra)))

let prop_bitmap_popcount =
  QCheck.Test.make ~name:"bitmap: pop_count = distinct sets" ~count:200
    QCheck.(list (int_bound 300))
    (fun indices ->
      let b = Bitmap.create 301 in
      List.iter (fun i -> Bitmap.set b i) indices;
      Bitmap.pop_count b = List.length (List.sort_uniq compare indices))

(* The table-driven pop_count must agree with the naive bit-by-bit count
   on arbitrary set/clear histories and sizes (including sizes that are
   not multiples of 8, where the trailing byte is only partly used). *)
let prop_bitmap_popcount_matches_naive =
  QCheck.Test.make ~name:"bitmap: table pop_count = naive per-bit count"
    ~count:300
    QCheck.(triple (int_range 1 400) (list (int_bound 399)) (list (int_bound 399)))
    (fun (size, sets, clears) ->
      let b = Bitmap.create size in
      List.iter (fun i -> if i < size then Bitmap.set b i) sets;
      List.iter (fun i -> if i < size then Bitmap.clear b i) clears;
      let naive = ref 0 in
      for i = 0 to size - 1 do
        if Bitmap.get b i then incr naive
      done;
      Bitmap.pop_count b = !naive)

let prop_bitmap_clear_inverts_set =
  QCheck.Test.make ~name:"bitmap: clear undoes set, leaves the rest" ~count:200
    QCheck.(pair (list (int_bound 300)) (list (int_bound 300)))
    (fun (sets, clears) ->
      let b = Bitmap.create 301 in
      List.iter (Bitmap.set b) sets;
      List.iter (Bitmap.clear b) clears;
      let expected = List.filter (fun i -> not (List.mem i clears)) sets in
      List.for_all (Bitmap.get b) expected
      && List.for_all (fun i -> not (Bitmap.get b i)) clears)

let prop_bitmap_iter_fold_agree =
  QCheck.Test.make ~name:"bitmap: iter_set, fold_set and pop_count agree"
    ~count:200
    QCheck.(list (int_bound 300))
    (fun indices ->
      let b = Bitmap.create 301 in
      List.iter (Bitmap.set b) indices;
      let via_iter = ref [] in
      Bitmap.iter_set b (fun i -> via_iter := i :: !via_iter);
      let via_iter = List.rev !via_iter in
      let via_fold =
        List.rev (Bitmap.fold_set b ~init:[] ~f:(fun acc i -> i :: acc))
      in
      via_iter = via_fold
      && via_iter = List.sort_uniq compare indices
      && List.length via_iter = Bitmap.pop_count b)

let prop_bitmap_test_and_set_reports_prior =
  QCheck.Test.make ~name:"bitmap: test_and_set returns the prior state"
    ~count:200
    QCheck.(list (int_bound 100))
    (fun indices ->
      let b = Bitmap.create 101 in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun i ->
          let prior = Hashtbl.mem model i in
          Hashtbl.replace model i ();
          Bitmap.test_and_set b i = prior && Bitmap.get b i)
        indices)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let vec_push_pop () =
  let v = Vec.create () in
  check Alcotest.bool "empty" true (Vec.is_empty v);
  Vec.push v 1;
  Vec.push v 2;
  Vec.push v 3;
  check Alcotest.int "length" 3 (Vec.length v);
  check (Alcotest.option Alcotest.int) "pop" (Some 3) (Vec.pop v);
  check Alcotest.int "length after pop" 2 (Vec.length v);
  check (Alcotest.option Alcotest.int) "pop" (Some 2) (Vec.pop v);
  check (Alcotest.option Alcotest.int) "pop" (Some 1) (Vec.pop v);
  check (Alcotest.option Alcotest.int) "pop empty" None (Vec.pop v)

let vec_get_set () =
  let v = Vec.make 5 0 in
  Vec.set v 2 42;
  check Alcotest.int "set/get" 42 (Vec.get v 2);
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of range")
    (fun () -> ignore (Vec.get v 5))

let vec_growth () =
  let v = Vec.create () in
  for i = 0 to 9_999 do
    Vec.push v i
  done;
  check Alcotest.int "length" 10_000 (Vec.length v);
  check Alcotest.int "first" 0 (Vec.get v 0);
  check Alcotest.int "last" 9_999 (Vec.get v 9_999)

let vec_clear_retains_nothing_visible () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Vec.clear v;
  check Alcotest.int "cleared" 0 (Vec.length v);
  Vec.push v 9;
  check Alcotest.int "push after clear" 9 (Vec.get v 0)

let vec_conversions () =
  let v = Vec.of_list [ 3; 1; 2 ] in
  check (Alcotest.list Alcotest.int) "to_list" [ 3; 1; 2 ] (Vec.to_list v);
  Vec.sort compare v;
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3 ] (Vec.to_list v)

let vec_fold_iter () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  check Alcotest.int "fold" 10 (Vec.fold_left ( + ) 0 v);
  let idx_sum = ref 0 in
  Vec.iteri (fun i x -> idx_sum := !idx_sum + (i * x)) v;
  check Alcotest.int "iteri" 20 !idx_sum;
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 3) v);
  check Alcotest.bool "not exists" false (Vec.exists (fun x -> x = 7) v)

let prop_vec_push_preserves =
  QCheck.Test.make ~name:"vec: of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

let prop_vec_stack_discipline =
  QCheck.Test.make ~name:"vec: push/pop is a stack" ~count:200
    QCheck.(list (option int))
    (fun script ->
      (* [Some x] pushes x, [None] pops; compare against a list model. *)
      let v = Vec.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
              Vec.push v x;
              model := x :: !model;
              true
          | None -> (
              let got = Vec.pop v in
              match !model with
              | [] -> got = None
              | x :: rest ->
                  model := rest;
                  got = Some x))
        script
      && Vec.to_list v = List.rev !model)

let prop_vec_sort_matches_list_sort =
  QCheck.Test.make ~name:"vec: sort matches List.sort" ~count:200
    QCheck.(list int)
    (fun xs ->
      let v = Vec.of_list xs in
      Vec.sort compare v;
      Vec.to_list v = List.sort compare xs)

let prop_vec_clear_then_push =
  QCheck.Test.make ~name:"vec: clear forgets, capacity reuse is invisible"
    ~count:200
    QCheck.(pair (list int) (list int))
    (fun (xs, ys) ->
      let v = Vec.of_list xs in
      Vec.clear v;
      List.iter (Vec.push v) ys;
      Vec.to_list v = ys)

(* ------------------------------------------------------------------ *)
(* Vec: in-place sort / retain / arena ops (the GC-phase arenas)       *)
(* ------------------------------------------------------------------ *)

let vec_pop_last () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  check Alcotest.int "pop_last" 3 (Vec.pop_last v);
  check Alcotest.int "pop_last" 2 (Vec.pop_last v);
  check Alcotest.int "length" 1 (Vec.length v);
  check Alcotest.int "pop_last" 1 (Vec.pop_last v);
  Alcotest.check_raises "empty" (Invalid_argument "Vec.pop_last: empty")
    (fun () -> ignore (Vec.pop_last v))

let vec_truncate () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5 ] in
  Vec.truncate v 2;
  check (Alcotest.list Alcotest.int) "prefix kept" [ 1; 2 ] (Vec.to_list v);
  Vec.truncate v 2;
  check Alcotest.int "idempotent at length" 2 (Vec.length v);
  Vec.truncate v 0;
  check Alcotest.bool "empty" true (Vec.is_empty v);
  Alcotest.check_raises "bad length" (Invalid_argument "Vec.truncate: bad length")
    (fun () -> Vec.truncate v 1)

let vec_retain_basic () =
  let v = Vec.of_list [ 5; 2; 7; 2; 9 ] in
  Vec.retain (fun x -> x <> 2) v;
  check (Alcotest.list Alcotest.int) "order preserved" [ 5; 7; 9 ]
    (Vec.to_list v)

(* The arena contract the collector relies on: once a vector has grown,
   clear + refill up to the old length never reallocates the backing
   array (observable on the host as zero allocated bytes). *)
let vec_clear_keeps_capacity () =
  let v = Vec.create () in
  for i = 1 to 1024 do
    Vec.push v i
  done;
  let refill () =
    Vec.clear v;
    for i = 1 to 1024 do
      Vec.push v i
    done
  in
  refill ();
  (* Gc.allocated_bytes allocates its own boxed result; calibrate the
     per-call constant and subtract it from the window. *)
  let c0 = Gc.allocated_bytes () in
  let c1 = Gc.allocated_bytes () in
  let per_call = c1 -. c0 in
  let b0 = Gc.allocated_bytes () in
  refill ();
  let b1 = Gc.allocated_bytes () in
  let words = (b1 -. b0 -. per_call) /. float_of_int (Sys.word_size / 8) in
  check Alcotest.bool "no allocation on reuse" true (words < 1.0)

let prop_vec_retain_matches_filter =
  QCheck.Test.make ~name:"vec: retain matches List.filter" ~count:300
    QCheck.(pair (list int) int)
    (fun (xs, pivot) ->
      let p x = x < pivot in
      let v = Vec.of_list xs in
      Vec.retain p v;
      Vec.to_list v = List.filter p xs)

(* Heapsort is not stable, so agreement with List.sort needs a total
   order — which is exactly how the collector uses it (EC selection
   breaks ties on page id).  Pairs with distinct second components give
   a total order with many first-component collisions. *)
let prop_vec_sort_total_order_matches_list_sort =
  QCheck.Test.make ~name:"vec: sort under a total order matches List.sort"
    ~count:300
    QCheck.(list (int_bound 7))
    (fun keys ->
      let xs = List.mapi (fun i k -> (k, i)) keys in
      let v = Vec.of_list xs in
      Vec.sort compare v;
      Vec.to_list v = List.sort compare xs)

let prop_vec_truncate_is_prefix =
  QCheck.Test.make ~name:"vec: truncate keeps the prefix" ~count:200
    QCheck.(pair (list int) (int_bound 50))
    (fun (xs, n) ->
      let v = Vec.of_list xs in
      let n = min n (List.length xs) in
      Vec.truncate v n;
      Vec.to_list v = List.filteri (fun i _ -> i < n) xs)

(* ------------------------------------------------------------------ *)
(* Bitmap.next_set (the collector's allocation-free livemap cursor)    *)
(* ------------------------------------------------------------------ *)

let bitmap_next_set_basic () =
  let b = Bitmap.create 40 in
  check Alcotest.int "empty" (-1) (Bitmap.next_set b 0);
  List.iter (Bitmap.set b) [ 0; 7; 8; 31; 39 ];
  check Alcotest.int "from 0" 0 (Bitmap.next_set b 0);
  check Alcotest.int "from 1" 7 (Bitmap.next_set b 1);
  check Alcotest.int "at a set bit" 7 (Bitmap.next_set b 7);
  check Alcotest.int "byte boundary" 8 (Bitmap.next_set b 8);
  check Alcotest.int "from 9" 31 (Bitmap.next_set b 9);
  check Alcotest.int "last bit" 39 (Bitmap.next_set b 32);
  check Alcotest.int "past last" (-1) (Bitmap.next_set b 40);
  Alcotest.check_raises "negative" (Invalid_argument "Bitmap.next_set: negative index")
    (fun () -> ignore (Bitmap.next_set b (-1)))

let prop_bitmap_next_set_matches_iter_set =
  QCheck.Test.make ~name:"bitmap: next_set cursor walk = iter_set" ~count:300
    QCheck.(pair (int_range 1 300) (list (int_bound 299)))
    (fun (size, indices) ->
      let b = Bitmap.create size in
      List.iter (fun i -> if i < size then Bitmap.set b i) indices;
      let via_iter = ref [] in
      Bitmap.iter_set b (fun i -> via_iter := i :: !via_iter);
      let via_cursor = ref [] in
      let bit = ref (Bitmap.next_set b 0) in
      while !bit >= 0 do
        via_cursor := !bit :: !via_cursor;
        bit := if !bit + 1 >= size then -1 else Bitmap.next_set b (!bit + 1)
      done;
      !via_cursor = !via_iter)

(* ------------------------------------------------------------------ *)
(* Int_tbl: flat int -> int table vs a Hashtbl model                   *)
(* ------------------------------------------------------------------ *)

let int_tbl_basic () =
  let t = Int_tbl.create ~capacity:4 () in
  check Alcotest.int "empty" 0 (Int_tbl.length t);
  Int_tbl.set t ~key:3 ~value:30;
  Int_tbl.set t ~key:3 ~value:31;
  check Alcotest.int "replace keeps one binding" 1 (Int_tbl.length t);
  check Alcotest.int "latest value" 31 (Int_tbl.get t ~key:3 ~default:(-1));
  check Alcotest.int "miss" (-1) (Int_tbl.get t ~key:4 ~default:(-1));
  check Alcotest.bool "mem" true (Int_tbl.mem t ~key:3);
  Alcotest.check_raises "negative key"
    (Invalid_argument "Int_tbl.set: negative key") (fun () ->
      Int_tbl.set t ~key:(-1) ~value:0)

let int_tbl_add_if_absent () =
  let t = Int_tbl.create () in
  check Alcotest.int "first claim wins" (-1)
    (Int_tbl.add_if_absent t ~key:7 ~value:70);
  check Alcotest.int "second claim loses" 70
    (Int_tbl.add_if_absent t ~key:7 ~value:71);
  check Alcotest.int "binding untouched" 70 (Int_tbl.get t ~key:7 ~default:(-1))

let int_tbl_clear_keeps_capacity () =
  let t = Int_tbl.create ~capacity:4 () in
  for k = 0 to 99 do
    Int_tbl.set t ~key:k ~value:k
  done;
  let cap = Int_tbl.capacity t in
  check Alcotest.bool "grew" true (cap >= 128);
  Int_tbl.clear t;
  check Alcotest.int "emptied" 0 (Int_tbl.length t);
  check Alcotest.int "capacity retained" cap (Int_tbl.capacity t);
  check Alcotest.int "old bindings gone" (-1) (Int_tbl.get t ~key:5 ~default:(-1))

(* Hash quality: 4096 word-aligned keys [k * 8], and separately 4096
   consecutive keys, must each sit close to their home slots.  Taking
   the low bits of [key * fib] sends every [k * 8] to a slot that is a
   multiple of 8, which puts four keys on each home slot here (mean
   probe length 2.5). *)
let int_tbl_spreads_aligned_keys () =
  List.iter
    (fun (name, key_of) ->
      let t = Int_tbl.create () in
      for k = 0 to 4095 do
        Int_tbl.set t ~key:(key_of k) ~value:k
      done;
      let mean = Int_tbl.mean_probe_length t in
      check Alcotest.bool
        (Printf.sprintf "%s: mean probe length %.3f < 2" name mean)
        true (mean < 2.0))
    [ ("k * 8", fun k -> k * 8); ("consecutive", Fun.id) ]

(* Scripted model check against [Hashtbl], including growth from a
   single slot (scripts far exceed it) and bulk clears.  Keys are drawn
   as [base * 8] (word-aligned byte offsets, the forwarding tables'
   keys) or [base * 64], so they share low bits — the pattern a low-bit
   hash would pile into a few home slots. *)
let prop_int_tbl_matches_hashtbl =
  let key =
    QCheck.(map (fun (k, m) -> k * m) (pair (int_bound 60) (oneofl [ 8; 64 ])))
  in
  let op =
    QCheck.(
      oneof
        [
          map (fun (k, v) -> `Set (k, v)) (pair key (int_bound 1000));
          map (fun (k, v) -> `Add (k, v)) (pair key (int_bound 1000));
          map (fun k -> `Get k) key;
          map (fun () -> `Clear) unit;
        ])
  in
  QCheck.Test.make ~name:"int_tbl: scripted ops match Hashtbl model" ~count:300
    QCheck.(list op)
    (fun script ->
      let t = Int_tbl.create ~capacity:1 () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (fun operation ->
          match operation with
          | `Set (k, v) ->
              Int_tbl.set t ~key:k ~value:v;
              Hashtbl.replace model k v;
              true
          | `Add (k, v) ->
              let expect =
                match Hashtbl.find_opt model k with
                | Some existing -> existing
                | None ->
                    Hashtbl.replace model k v;
                    -1
              in
              Int_tbl.add_if_absent t ~key:k ~value:v = expect
          | `Get k ->
              Int_tbl.get t ~key:k ~default:(-1)
              = (match Hashtbl.find_opt model k with
                | Some v -> v
                | None -> -1)
              && Int_tbl.mem t ~key:k = Hashtbl.mem model k
          | `Clear ->
              Int_tbl.clear t;
              Hashtbl.reset model;
              true)
        script
      && Int_tbl.length t = Hashtbl.length model
      &&
      (* iter visits exactly the model's bindings, once each *)
      let seen = Hashtbl.create 16 in
      Int_tbl.iter t (fun k v -> Hashtbl.add seen k v);
      Hashtbl.length seen = Hashtbl.length model
      && Hashtbl.fold
           (fun k v ok -> ok && Hashtbl.find_opt seen k = Some v)
           model true)

let suite =
  [
    ( "util.rng",
      [
        case "deterministic" `Quick rng_deterministic;
        case "seed sensitivity" `Quick rng_seed_sensitivity;
        case "int bounds" `Quick rng_bounds;
        case "int_in bounds" `Quick rng_int_in;
        case "float bounds" `Quick rng_float_bounds;
        case "copy independent" `Quick rng_copy_independent;
        case "split diverges" `Quick rng_split_diverges;
        case "rough uniformity" `Quick rng_uniformity_rough;
        case "shuffle permutes" `Quick rng_shuffle_is_permutation;
        case "exponential positive" `Quick rng_exponential_positive;
        case "exponential mean" `Quick rng_exponential_mean;
        case "invalid bound" `Quick rng_invalid_bound;
        case "stream pinned" `Quick rng_stream_pinned;
        case "draws allocate nothing" `Quick rng_draws_allocate_nothing;
      ] );
    ( "util.int_sort",
      [ QCheck_alcotest.to_alcotest prop_int_sort_matches_array_sort ] );
    ( "util.bitmap",
      [
        case "basic" `Quick bitmap_basic;
        case "test_and_set" `Quick bitmap_test_and_set;
        case "reset" `Quick bitmap_reset;
        case "iter ascending" `Quick bitmap_iter_ascending;
        case "bounds" `Quick bitmap_bounds;
        case "byte boundaries" `Quick bitmap_boundary_bits;
        case "fold" `Quick bitmap_fold;
        QCheck_alcotest.to_alcotest prop_bitmap_set_get;
        QCheck_alcotest.to_alcotest prop_bitmap_popcount;
        QCheck_alcotest.to_alcotest prop_bitmap_popcount_matches_naive;
        QCheck_alcotest.to_alcotest prop_bitmap_clear_inverts_set;
        QCheck_alcotest.to_alcotest prop_bitmap_iter_fold_agree;
        QCheck_alcotest.to_alcotest prop_bitmap_test_and_set_reports_prior;
        case "next_set basic" `Quick bitmap_next_set_basic;
        QCheck_alcotest.to_alcotest prop_bitmap_next_set_matches_iter_set;
      ] );
    ( "util.vec",
      [
        case "push/pop" `Quick vec_push_pop;
        case "get/set" `Quick vec_get_set;
        case "growth" `Quick vec_growth;
        case "clear" `Quick vec_clear_retains_nothing_visible;
        case "conversions" `Quick vec_conversions;
        case "fold/iter" `Quick vec_fold_iter;
        QCheck_alcotest.to_alcotest prop_vec_push_preserves;
        QCheck_alcotest.to_alcotest prop_vec_stack_discipline;
        QCheck_alcotest.to_alcotest prop_vec_sort_matches_list_sort;
        QCheck_alcotest.to_alcotest prop_vec_clear_then_push;
        case "pop_last" `Quick vec_pop_last;
        case "truncate" `Quick vec_truncate;
        case "retain basic" `Quick vec_retain_basic;
        case "clear keeps capacity" `Quick vec_clear_keeps_capacity;
        QCheck_alcotest.to_alcotest prop_vec_retain_matches_filter;
        QCheck_alcotest.to_alcotest prop_vec_sort_total_order_matches_list_sort;
        QCheck_alcotest.to_alcotest prop_vec_truncate_is_prefix;
      ] );
    ( "util.int_tbl",
      [
        case "basic" `Quick int_tbl_basic;
        case "add_if_absent" `Quick int_tbl_add_if_absent;
        case "clear keeps capacity" `Quick int_tbl_clear_keeps_capacity;
        case "spreads aligned keys" `Quick int_tbl_spreads_aligned_keys;
        QCheck_alcotest.to_alcotest prop_int_tbl_matches_hashtbl;
      ] );
  ]
