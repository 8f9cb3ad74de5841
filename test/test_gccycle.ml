(* The GC cycle's host-allocation gates, on scaled-down bench/gccycle
   kernels.  A full cycle over all-garbage pages (churn) and a tiered
   cycle that demotes without copying must allocate zero host words once
   arenas and tables have reached their high-water sizes: the fence for
   the flat forwarding and object indexes, tier residency, the reused
   phase arenas and the in-place heap bookkeeping — any reintroduced
   per-cycle boxing (an option, a tuple, a closure, a list) shows up here
   as a fraction of a word per cycle.  Relocation is bounded per
   relocated object. *)

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
  let col, mutate = mk_churn () in
  (* Warmup: grow every arena, table and free list to steady state. *)
  for _ = 1 to 30 do
    mutate ();
    run_cycle col
  done;
  let ovh = Alloc_meter.overhead_per_call () in
  let rounds = 50 in
  let per_cycle = Array.make rounds 0.0 in
  for r = 0 to rounds - 1 do
    mutate ();
    let a0 = Alloc_meter.words () in
    run_cycle col;
    let a1 = Alloc_meter.words () in
    per_cycle.(r) <- a1 -. a0 -. ovh
  done;
  (* Judged on the median cycle, not the mean: a real per-cycle
     allocation shows in every cycle, so the median still catches it,
     and one odd window cannot fail the gate. *)
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

(* The relocation fence: bench/gccycle's relocation-storm kernel, scaled
   down — a rooted live set with a third replaced each round, so every
   cycle evacuates survivors of mostly-live pages.  Registering,
   resolving and evacuating an object allocate nothing of their own;
   what a cycle allocates is the amortised growth of flat tables on
   fresh pages (each target page's object index and each source page's
   forwarding table double from 16 slots).  That measures 16.6 words per
   relocated object here, against 13.0 for the per-page [Hashtbl] index
   it replaced (4 words per binding, but no regrowth): the flat index
   wins host time, not words.  The bound catches any per-object
   allocation put back on the path (a [Hashtbl] binding is 4 words). *)
let relocation_words_per_object () =
  let layout = Layout.scaled ~small_page in
  let heap = Heap.create ~layout ~max_bytes:(128 * small_page) () in
  let machine = Machine.create ~cores:2 () in
  let roots : Hcsgc_heap.Heap_obj.t Vec.t = Vec.create () in
  let col =
    Collector.create ~heap ~machine ~config:Config.zgc ~gc_core:1
      ~roots:(fun f -> Vec.iter f roots)
      ()
  in
  let alloc () =
    match Collector.alloc col ~core:0 ~nrefs:1 ~nwords:6 with
    | Some (obj, _) -> obj
    | None -> failwith "test_gccycle: heap exhausted"
  in
  let n = 1_500 in
  for _ = 1 to n do
    Vec.push roots (alloc ())
  done;
  run_cycle col;
  let mutate r =
    let i = ref (r mod 3) in
    while !i < n do
      Vec.set roots !i (alloc ());
      i := !i + 3
    done
  in
  let relocated () =
    let st = Collector.stats col in
    Hcsgc_core.Gc_stats.objects_relocated_by_gc st
    + Hcsgc_core.Gc_stats.objects_relocated_by_mutator st
  in
  for r = 1 to 10 do
    mutate r;
    run_cycle col
  done;
  let ovh = Alloc_meter.overhead_per_call () in
  let words = ref 0.0 and moved = ref 0 in
  for r = 11 to 40 do
    mutate r;
    let moved0 = relocated () in
    let a0 = Alloc_meter.words () in
    run_cycle col;
    let a1 = Alloc_meter.words () in
    words := !words +. (a1 -. a0 -. ovh);
    moved := !moved + (relocated () - moved0)
  done;
  let per_object = !words /. float_of_int !moved in
  check Alcotest.bool "cycles relocated objects" true (!moved > 0);
  check Alcotest.bool
    (Printf.sprintf "relocation allocates %.3f words/object, want < 20"
       per_object)
    true (per_object < 20.0)

(* bench/gccycle's tiered-demotion kernel, scaled down: HOTNESS plus a
   far tier, a cold live set that even rounds touch (promoting its pages)
   and odd rounds leave cold (the cycle demotes them again).  Such a
   cycle marks, resolves, demotes and frees garbage pages; with flat
   residency and the flat object index it allocates nothing (the
   [Hashtbl] residency set cost 4 words per demoted granule). *)
let tiered_cycle_allocates_nothing () =
  let layout = Layout.scaled ~small_page in
  let config =
    Config.make ~hotness:true ~cold_confidence:1.0 ~tier_capacity_pages:64 ()
  in
  let heap = Heap.create ~layout ~max_bytes:(128 * small_page) () in
  let machine = Machine.create ~cores:2 () in
  let tier =
    Hcsgc_memsim.Tier.create ~granule_bytes:small_page
      ~capacity_bytes:(64 * small_page) ~lat_far:config.Config.lat_far ()
  in
  Machine.set_tier machine (Some tier);
  let roots : Hcsgc_heap.Heap_obj.t Vec.t = Vec.create () in
  let col =
    Collector.create ~tier ~heap ~machine ~config ~gc_core:1
      ~roots:(fun f -> Vec.iter f roots)
      ()
  in
  let alloc () =
    match Collector.alloc col ~core:0 ~nrefs:1 ~nwords:6 with
    | Some (obj, _) -> obj
    | None -> failwith "test_gccycle: heap exhausted"
  in
  let n = 1_000 in
  for _ = 1 to n do
    Vec.push roots (alloc ())
  done;
  run_cycle col;
  let mutate r =
    if r land 1 = 0 then
      Vec.iter (fun o -> ignore (Collector.use_handle col ~core:0 o)) roots;
    for _ = 1 to 750 do
      ignore (alloc ())
    done
  in
  for r = 1 to 10 do
    mutate r;
    run_cycle col
  done;
  let ovh = Alloc_meter.overhead_per_call () in
  let rounds = 40 in
  let per_cycle = Array.make rounds 0.0 in
  for r = 0 to rounds - 1 do
    mutate (r + 11);
    let a0 = Alloc_meter.words () in
    run_cycle col;
    let a1 = Alloc_meter.words () in
    per_cycle.(r) <- a1 -. a0 -. ovh
  done;
  Array.sort Float.compare per_cycle;
  let words_per_cycle = per_cycle.(rounds / 2) in
  check Alcotest.bool
    (Printf.sprintf "tiered cycle allocates (%.4f w/c, want < 0.05)"
       words_per_cycle)
    true
    (words_per_cycle < 0.05);
  check Alcotest.bool "pages were demoted" true
    (Hcsgc_memsim.Tier.peak_bytes tier > 0)

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
        case "allocation meter is exact" `Quick meter_is_exact;
        case "relocation words per object" `Quick relocation_words_per_object;
        case "tiered cycle allocates nothing" `Quick
          tiered_cycle_allocates_nothing;
      ] );
  ]
