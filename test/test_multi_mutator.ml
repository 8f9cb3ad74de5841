(* Tests for multi-mutator VMs: per-thread clocks and caches, shared heap,
   relocation attribution per thread, determinism, verifier transparency
   and multi-mutator fuzzing under the mark-sweep oracle. *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module Layout = Hcsgc_heap.Layout
module H = Hcsgc_memsim.Hierarchy
module Runner = Hcsgc_experiments.Runner
module Fuzz = Hcsgc_fuzz.Fuzz

let check = Alcotest.check
let case = Alcotest.test_case

let layout = Layout.scaled ~small_page:(16 * 1024)

(* All multi-mutator tests run under the phase-boundary sanitizer: the
   shared-heap interleavings are exactly where metadata corruption would
   hide.  Verification is read-only, so the clock/counter assertions below
   are unaffected. *)
let mk_vm ?(config = Config.zgc) ?(mutators = 2) () =
  Vm.create ~layout ~mutators ~verify:true ~config ~max_heap:(4 * 1024 * 1024)
    ()

let creation_rules () =
  check Alcotest.int "count" 3 (Vm.mutator_count (mk_vm ~mutators:3 ()));
  Alcotest.check_raises "zero mutators"
    (Invalid_argument "Vm.create: need at least one mutator") (fun () ->
      ignore (mk_vm ~mutators:0 ()));
  Alcotest.check_raises "saturated multi"
    (Invalid_argument "Vm.create: saturated mode models a single mutator core")
    (fun () ->
      ignore
        (Vm.create ~layout ~mutators:2 ~saturated:true ~config:Config.zgc
           ~max_heap:(1024 * 1024) ()))

let per_thread_clocks () =
  let vm = mk_vm () in
  Vm.work ~m:0 vm 1_000;
  Vm.work ~m:1 vm 5_000;
  check Alcotest.int "thread 0 clock" 1_000 (Vm.mutator_clock vm ~m:0);
  check Alcotest.int "thread 1 clock" 5_000 (Vm.mutator_clock vm ~m:1);
  check Alcotest.int "wall follows the slowest" 5_000 (Vm.wall_cycles vm);
  Alcotest.check_raises "bad index"
    (Invalid_argument "Vm: mutator index out of range") (fun () ->
      Vm.work ~m:2 vm 1)

let shared_heap_visible () =
  let vm = mk_vm () in
  let o = Vm.alloc ~m:0 vm ~nrefs:1 ~nwords:1 in
  Vm.add_root vm o;
  Vm.store_word ~m:0 vm o 0 42;
  (* Thread 1 reads what thread 0 wrote. *)
  check Alcotest.int "cross-thread read" 42 (Vm.load_word ~m:1 vm o 0);
  let p = Vm.alloc ~m:1 vm ~nrefs:0 ~nwords:1 in
  Vm.store_ref ~m:1 vm o 0 (Some p);
  check Alcotest.bool "cross-thread ref" true (Vm.load_ref ~m:0 vm o 0 <> None)

let private_l1_caches () =
  let vm = mk_vm () in
  let o = Vm.alloc ~m:0 vm ~nrefs:0 ~nwords:1 in
  Vm.add_root vm o;
  (* Warm thread 0's cache; thread 1 still misses its private L1. *)
  for _ = 1 to 8 do
    ignore (Vm.load_word ~m:0 vm o 0)
  done;
  let c0 = Vm.wall_cycles vm in
  ignore c0;
  let w0 = Vm.mutator_clock vm ~m:0 in
  ignore (Vm.load_word ~m:0 vm o 0);
  let hit_cost = Vm.mutator_clock vm ~m:0 - w0 in
  let w1 = Vm.mutator_clock vm ~m:1 in
  ignore (Vm.load_word ~m:1 vm o 0);
  let miss_cost = Vm.mutator_clock vm ~m:1 - w1 in
  check Alcotest.bool
    (Printf.sprintf "thread 1 pays more (%d vs %d)" miss_cost hit_cost)
    true (miss_cost > hit_cost)

let gc_with_multiple_mutators () =
  (* Both threads allocate and share structure across GC cycles. *)
  let vm = mk_vm ~config:(Config.of_id 18) () in
  let keeper = Vm.alloc ~m:0 vm ~nrefs:64 ~nwords:0 in
  Vm.add_root vm keeper;
  for i = 0 to 63 do
    let m = i mod 2 in
    let o = Vm.alloc ~m vm ~nrefs:0 ~nwords:1 in
    Vm.store_word ~m vm o 0 i;
    Vm.store_ref ~m vm keeper i (Some o)
  done;
  for round = 1 to 50_000 do
    let m = round mod 2 in
    ignore (Vm.alloc ~m vm ~nrefs:0 ~nwords:8);
    if round mod 100 = 0 then
      for i = 0 to 63 do
        match Vm.load_ref ~m vm keeper i with
        | Some o -> check Alcotest.int "payload" i (Vm.load_word ~m vm o 0)
        | None -> Alcotest.fail "lost object"
      done
  done;
  Vm.finish vm;
  check Alcotest.bool "cycles ran" true (Gc_stats.cycles (Vm.gc_stats vm) >= 2);
  match
    Hcsgc_verify.Invariants.check (Vm.collector vm)
      ~edge:Hcsgc_core.Collector.Cycle_done
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" (List.hd e)

let deterministic () =
  let go () =
    let vm = mk_vm () in
    let keeper = Vm.alloc vm ~nrefs:32 ~nwords:0 in
    Vm.add_root vm keeper;
    for i = 0 to 31 do
      let m = i mod 2 in
      let o = Vm.alloc ~m vm ~nrefs:0 ~nwords:2 in
      Vm.store_ref ~m vm keeper i (Some o)
    done;
    for round = 1 to 10_000 do
      let m = round mod 2 in
      ignore (Vm.alloc ~m vm ~nrefs:0 ~nwords:8);
      ignore (Vm.load_ref ~m vm keeper (round mod 32))
    done;
    Vm.finish vm;
    (Vm.wall_cycles vm, (Vm.counters vm).H.loads)
  in
  check (Alcotest.pair Alcotest.int Alcotest.int) "bit identical" (go ()) (go ())

let counters_cover_all_mutators () =
  let vm = mk_vm () in
  let o = Vm.alloc ~m:0 vm ~nrefs:0 ~nwords:1 in
  Vm.add_root vm o;
  ignore (Vm.load_word ~m:0 vm o 0);
  ignore (Vm.load_word ~m:1 vm o 0);
  let mc = Vm.mutator_counters vm in
  check Alcotest.bool "both threads' loads counted" true (mc.H.loads >= 2)

(* Random heap-op sequences over three mutators; [check_seed] keeps the
   invariant sweeps and the mark-sweep oracle on. *)
let fuzz_seeds ~config seeds =
  List.iter
    (fun seed ->
      match
        Fuzz.check_seed ~mutators:3 ~config ~slots:24 ~ops:1_200 ~seed ()
      with
      | None -> ()
      | Some cex ->
          Alcotest.failf "seed %d failed:@.%a" seed Fuzz.pp_counterexample cex)
    seeds

let fuzz_multi_mutator () = fuzz_seeds ~config:(Config.of_id 18) [ 1; 2; 3 ]

(* Demotion at mark end and promotion from the barrier, with three
   mutators racing the collector for the same far-tier pages. *)
let fuzz_multi_mutator_tiered () =
  fuzz_seeds
    ~config:
      (Hcsgc_experiments.Fig_tier.tier_config ~capacity:8 ~lat_far:800
         ~promote:true)
    [ 2 ]

let fuzz_outcome_repeatable () =
  let actions = Array.to_list (Fuzz.generate ~seed:11 ~ops:1_000 ~slots:20) in
  let outcome () =
    Fuzz.run ~mutators:3 ~config:(Config.of_id 18) ~slots:20 actions
  in
  match (outcome (), outcome ()) with
  | Fuzz.Pass { gc_cycles = a }, Fuzz.Pass { gc_cycles = b } ->
      check Alcotest.int "gc cycles repeat" a b
  | _ -> Alcotest.fail "expected Pass on both runs"

let suite =
  [
    ( "runtime.multi_mutator",
      [
        case "creation rules" `Quick creation_rules;
        case "per-thread clocks" `Quick per_thread_clocks;
        case "shared heap" `Quick shared_heap_visible;
        case "private L1 caches" `Quick private_l1_caches;
        case "GC with two mutators" `Slow gc_with_multiple_mutators;
        case "deterministic" `Quick deterministic;
        case "counters cover mutators" `Quick counters_cover_all_mutators;
        case "fuzz three mutators" `Slow fuzz_multi_mutator;
        case "fuzz three mutators tiered" `Slow fuzz_multi_mutator_tiered;
        case "fuzz outcome repeatable" `Quick fuzz_outcome_repeatable;
      ] );
  ]
