(* The GC cycle's host-allocation gates, on bench/micro's cycle kernels
   at half size.  A full cycle over all-garbage pages (churn) and a tiered
   cycle that demotes without copying must allocate zero host words once
   arenas and tables have reached their high-water sizes: the fence for
   the flat forwarding and object indexes, tier residency, the reused
   phase arenas and the in-place heap bookkeeping — any reintroduced
   per-cycle boxing (an option, a tuple, a closure, a list) shows up here
   as a fraction of a word per cycle.  Relocation is bounded per
   relocated object. *)

module Heap = Hcsgc_heap.Heap
module Heap_obj = Hcsgc_heap.Heap_obj
module Page = Hcsgc_heap.Page
module Collector = Hcsgc_core.Collector
module Gc_stats = Hcsgc_core.Gc_stats
module Tier = Hcsgc_memsim.Tier
module Alloc_meter = Hcsgc_util.Alloc_meter
module Invariants = Hcsgc_verify.Invariants
module Kernels = Bench_micro.Kernels

let check = Alcotest.check
let case = Alcotest.test_case

(* The fences run the bench kernels at half size: 2,000 objects a churn
   round, a relocation-storm live set of 1,500, a tiered live set of 1,000
   with 750 allocated a round. *)
let div = 2

(* Rounds [first] to [last] of a kernel: each round's mutator phase, then
   one cycle.  Returns the host words each cycle allocated. *)
let rounds (col, mutate) ~first ~last =
  let ovh = Alloc_meter.overhead_per_call () in
  Array.init (last - first + 1) (fun i ->
      mutate (first + i);
      let a0 = Alloc_meter.words () in
      Kernels.run_cycle col;
      Alloc_meter.words () -. a0 -. ovh)

(* Judged on the median cycle, not the mean: a real per-cycle allocation
   shows in every cycle, so the median still catches it, and one odd
   window cannot fail the gate. *)
let median a =
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* The meter counts known allocations exactly: 100 list cells (3 words
   each, minor heap) and one 512-element array (513 words, allocated
   straight in the major heap). *)
let meter_is_exact () =
  let ovh = Alloc_meter.overhead_per_call () in
  let a0 = Alloc_meter.words () in
  let cells = List.init 100 Fun.id in
  let a1 = Alloc_meter.words () in
  let big = Array.make 512 0 in
  let a2 = Alloc_meter.words () in
  check (Alcotest.float 0.0) "100 list cells" 300.0 (a1 -. a0 -. ovh);
  check (Alcotest.float 0.0) "512-element array" 513.0 (a2 -. a1 -. ovh);
  ignore (Sys.opaque_identity (cells, big))

let churn_cycle_allocates_nothing () =
  let ((col, _) as kernel) = Kernels.churn ~div in
  (* Warmup: grow every arena, table and free list to steady state. *)
  ignore (rounds kernel ~first:1 ~last:30);
  let words_per_cycle = median (rounds kernel ~first:31 ~last:80) in
  check Alcotest.bool
    (Printf.sprintf "steady-state churn cycle allocates (%.4f w/c, want < 0.05)"
       words_per_cycle)
    true
    (words_per_cycle < 0.05);
  (* The cycles measured were real ones: pages were freed and recycled. *)
  check Alcotest.bool "heap stayed bounded" true
    (Heap.used_bytes (Collector.heap col) < 128 * Kernels.small_page);
  match Invariants.check col ~edge:Collector.Cycle_done with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "invariants: %s" (String.concat "; " msgs)

(* A freed page gives its objects, object index and word storage back at
   once: after churn cycles no freed page awaiting retirement still
   registers an object, every live arena slot belongs to an object on a
   live page, and the page vector holds at most as many tombstones as
   live pages (it compacts once more than half of it is freed pages). *)
let freed_pages_release_objects () =
  let ((col, _) as kernel) = Kernels.churn ~div in
  ignore (rounds kernel ~first:1 ~last:12);
  let heap = Collector.heap col in
  let freed = ref 0 in
  Collector.iter_stale_fwd_pages col (fun page ->
      incr freed;
      check Alcotest.int
        (Printf.sprintf "freed page #%d registers no object" page.Page.id)
        0 (Page.object_count page));
  check Alcotest.bool "the last cycle freed pages" true (!freed > 0);
  let registered = ref 0 in
  Heap.iter_pages heap (fun page ->
      registered := !registered + Page.object_count page);
  check Alcotest.int "live slots = objects on live pages" !registered
    (Heap_obj.live_count (Heap.objects heap));
  check Alcotest.bool
    (Printf.sprintf "%d tombstones in a page vector of %d"
       (Heap.tombstones heap) (Heap.pages_held heap))
    true
    (2 * Heap.tombstones heap <= Heap.pages_held heap)

(* The relocation fence: the relocation-storm kernel — a rooted live set
   with a third replaced each round, so every cycle evacuates survivors of
   mostly-live pages.  Registering, resolving and evacuating an object
   allocate nothing of their own (the object is an arena slot and its
   words move between page storages); what a cycle allocates is the
   amortised growth of flat tables and the records of fresh target pages
   (each source page's forwarding table doubles from 16 slots; target
   pages take full-grown object indexes from the pool freed pages fill).
   That measures 7.5 words per relocated object here, against 16.6 with an
   OCaml record per object and a fresh index per page.  The bound, 10,
   catches any per-object allocation put back on the path (an option or a
   tuple is 2-3 words). *)
let relocation_words_per_object () =
  let ((col, _) as kernel) = Kernels.relocation_storm ~div in
  let relocated () =
    let st = Collector.stats col in
    Gc_stats.objects_relocated_by_gc st + Gc_stats.objects_relocated_by_mutator st
  in
  ignore (rounds kernel ~first:1 ~last:10);
  (* The mutator phase only allocates and stores roots, so every object
     relocated between the two reads was moved by a metered cycle. *)
  let moved0 = relocated () in
  let words = rounds kernel ~first:11 ~last:40 in
  let moved = relocated () - moved0 in
  let per_object = Array.fold_left ( +. ) 0.0 words /. float_of_int moved in
  check Alcotest.bool "cycles relocated objects" true (moved > 0);
  check Alcotest.bool
    (Printf.sprintf "relocation allocates %.3f words/object, want < 10"
       per_object)
    true (per_object < 10.0)

(* The tiered-demotion kernel: HOTNESS plus a far tier, a cold live set
   that even rounds touch (promoting its pages) and odd rounds leave cold
   (the cycle demotes them again).  Such a cycle marks, resolves, demotes
   and frees garbage pages; with flat residency and the flat object index
   it allocates nothing (the [Hashtbl] residency set cost 4 words per
   demoted granule). *)
let tiered_cycle_allocates_nothing () =
  let ((col, _) as kernel) = Kernels.tiered_demotion ~div in
  ignore (rounds kernel ~first:1 ~last:10);
  let words_per_cycle = median (rounds kernel ~first:11 ~last:50) in
  check Alcotest.bool
    (Printf.sprintf "tiered cycle allocates (%.4f w/c, want < 0.05)"
       words_per_cycle)
    true
    (words_per_cycle < 0.05);
  check Alcotest.bool "pages were demoted" true
    (match Collector.tier col with
    | Some tier -> Tier.peak_bytes tier > 0
    | None -> false)

(* The same drive loop must leave the simulated outcome untouched by the
   host-allocation discipline: two identical runs agree exactly (the
   cheap in-test stand-in for the cross-run byte-identity battery). *)
let churn_deterministic () =
  let run () =
    let ((col, _) as kernel) = Kernels.churn ~div in
    ignore (rounds kernel ~first:1 ~last:20);
    let stats = Collector.stats col in
    ( Gc_stats.cycles stats,
      Gc_stats.pages_freed stats,
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
        case "freed pages release their objects" `Quick
          freed_pages_release_objects;
        case "allocation meter is exact" `Quick meter_is_exact;
        case "relocation words per object" `Quick relocation_words_per_object;
        case "tiered cycle allocates nothing" `Quick
          tiered_cycle_allocates_nothing;
      ] );
  ]
