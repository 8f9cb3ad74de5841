(* The steady-state allocation gate: a full GC cycle over all-garbage
   pages (bench/gccycle's churn kernel, scaled down) must allocate zero
   host words once arenas and tables have reached their high-water
   sizes.  This is the regression fence for the flat forwarding index,
   the reused phase arenas and the in-place heap bookkeeping — any
   reintroduced per-cycle boxing (an option, a tuple, a closure, a list)
   shows up here as a fraction of a word per cycle. *)

module Heap = Hcsgc_heap.Heap
module Layout = Hcsgc_heap.Layout
module Machine = Hcsgc_memsim.Machine
module Collector = Hcsgc_core.Collector
module Config = Hcsgc_core.Config
module Vec = Hcsgc_util.Vec

let check = Alcotest.check
let case = Alcotest.test_case

let small_page = 16 * 1024

let run_cycle col =
  Collector.start_cycle col;
  while Collector.in_cycle col do
    Collector.gc_work col ~budget:max_int
  done

let mk_churn () =
  let layout = Layout.scaled ~small_page in
  let heap = Heap.create ~layout ~max_bytes:(128 * small_page) () in
  let machine = Machine.create ~cores:2 () in
  let roots : Hcsgc_heap.Heap_obj.t Vec.t = Vec.create () in
  let col =
    Collector.create ~heap ~machine ~config:Config.zgc ~gc_core:1
      ~roots:(fun f -> Vec.iter f roots)
      ()
  in
  let mutate () =
    for _ = 1 to 2_000 do
      match Collector.alloc col ~core:0 ~nrefs:1 ~nwords:6 with
      | Some _ -> ()
      | None -> failwith "test_gccycle: heap exhausted"
    done
  in
  (col, mutate)

(* Gc.allocated_bytes allocates its own boxed result; the per-call
   constant is deterministic — calibrate and subtract (same scheme as
   bench/gccycle). *)
let overhead_per_call () =
  let a0 = Gc.allocated_bytes () in
  let a1 = Gc.allocated_bytes () in
  a1 -. a0

let churn_cycle_allocates_nothing () =
  let col, mutate = mk_churn () in
  (* Warmup: grow every arena, table and free list to steady state. *)
  for _ = 1 to 30 do
    mutate ();
    run_cycle col
  done;
  let ovh = overhead_per_call () in
  let rounds = 50 in
  let per_cycle = Array.make rounds 0.0 in
  for r = 0 to rounds - 1 do
    mutate ();
    let a0 = Gc.allocated_bytes () in
    run_cycle col;
    let a1 = Gc.allocated_bytes () in
    per_cycle.(r) <- (a1 -. a0 -. ovh) /. float_of_int (Sys.word_size / 8)
  done;
  (* Judged on the median cycle, not the mean: in a full-suite run, after
     suites that spawn domains, one cycle's [Gc.allocated_bytes] delta has
     been seen to jump by thousands of words that this test run alone
     never shows.  A real per-cycle allocation shows in every cycle, so
     the median still catches it. *)
  Array.sort Float.compare per_cycle;
  let words_per_cycle = per_cycle.(rounds / 2) in
  check Alcotest.bool
    (Printf.sprintf "steady-state churn cycle allocates (%.4f w/c, want < 0.05)"
       words_per_cycle)
    true
    (words_per_cycle < 0.05);
  (* The cycles measured were real ones: pages were freed and recycled. *)
  check Alcotest.bool "heap stayed bounded" true
    (Heap.used_bytes (Collector.heap col) < 128 * small_page);
  match Collector.verify col with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "verify: %s" (String.concat "; " msgs)

(* The same drive loop must leave the simulated outcome untouched by the
   host-allocation discipline: two identical runs agree exactly (the
   cheap in-test stand-in for the cross-run byte-identity battery). *)
let churn_deterministic () =
  let run () =
    let col, mutate = mk_churn () in
    for _ = 1 to 20 do
      mutate ();
      run_cycle col
    done;
    let stats = Collector.stats col in
    ( Hcsgc_core.Gc_stats.cycles stats,
      Hcsgc_core.Gc_stats.pages_freed stats,
      Heap.used_bytes (Collector.heap col) )
  in
  let a = run () and b = run () in
  check
    (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
    "identical cycle/free/usage counters" a b

let suite =
  [
    ( "gccycle",
      [
        case "churn cycle allocates nothing" `Quick churn_cycle_allocates_nothing;
        case "churn deterministic" `Quick churn_deterministic;
      ] );
  ]
