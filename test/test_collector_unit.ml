(* Direct collector-level tests: colour-window transitions (Fig. 2), cycle
   phase structure, allocation-budget pacing, forwarding-table retirement
   and address-space recycling, medium-object handling, and the rooting
   discipline's failure mode. *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Collector = Hcsgc_core.Collector
module Gc_stats = Hcsgc_core.Gc_stats
module Layout = Hcsgc_heap.Layout
module Heap = Hcsgc_heap.Heap
module Addr = Hcsgc_heap.Addr
module Heap_obj = Hcsgc_heap.Heap_obj
module Page = Hcsgc_heap.Page
module Bitmap = Hcsgc_util.Bitmap
module Invariants = Hcsgc_verify.Invariants

let check = Alcotest.check
let case = Alcotest.test_case

let layout = Layout.scaled ~small_page:(16 * 1024)

let mk_vm ?(config = Config.zgc) ?(max_heap = 2 * 1024 * 1024) () =
  Vm.create ~layout ~config ~max_heap ()

let churn vm n =
  for _ = 1 to n do
    ignore (Vm.alloc vm ~nrefs:0 ~nwords:12)
  done

let churn_one_cycle vm =
  let col = Vm.collector vm in
  let start = Gc_stats.cycles (Vm.gc_stats vm) in
  while Gc_stats.cycles (Vm.gc_stats vm) = start || Collector.in_cycle col do
    churn vm 64
  done

(* ------------------------------------------------------------------ *)
(* Colour windows                                                      *)
(* ------------------------------------------------------------------ *)

let color_window_sequence () =
  (* Drive a bare collector directly so phases can be observed precisely. *)
  let heap = Heap.create ~layout ~max_bytes:(2 * 1024 * 1024) () in
  let machine = Hcsgc_memsim.Machine.create ~cores:1 () in
  let col =
    Collector.create ~heap ~machine ~config:Config.zgc ~gc_core:0
      ~roots:(fun _f -> ())
      ()
  in
  check Alcotest.int "no cycles yet" 0 (Collector.cycle_number col);
  let mark_colors = ref [] in
  for n = 1 to 2 do
    Collector.start_cycle col;
    check Alcotest.int "cycle number" n (Collector.cycle_number col);
    check Alcotest.bool "marking after STW1" true
      (Collector.phase col = Collector.Marking);
    mark_colors := Collector.good_color col :: !mark_colors;
    Collector.gc_work col ~budget:max_int;
    check Alcotest.bool "idle after drain" true
      (Collector.phase col = Collector.Idle);
    check Alcotest.bool "good colour is R between cycles" true
      (Collector.good_color col = Addr.R)
  done;
  match List.rev !mark_colors with
  | [ a; b ] ->
      check Alcotest.bool "mark colours alternate (M0/M1)" true
        (a <> b && a <> Addr.R && b <> Addr.R)
  | _ -> Alcotest.fail "expected two marking windows" 

let phase_progression () =
  let vm = mk_vm () in
  let col = Vm.collector vm in
  check Alcotest.bool "starts idle" true (Collector.phase col = Collector.Idle);
  churn_one_cycle vm;
  Vm.finish vm;
  check Alcotest.bool "idle after finish" true
    (Collector.phase col = Collector.Idle);
  check Alcotest.bool "cycle counted" true (Collector.cycle_number col >= 1)

(* ------------------------------------------------------------------ *)
(* Cycle pacing                                                        *)
(* ------------------------------------------------------------------ *)

let allocation_budget_pacing () =
  (* With a 2 MB heap and trigger 0.25, a cycle should start roughly every
     512 KB of allocation: allocating ~2 MB in small objects must produce
     3-6 cycles, not 1 and not 20. *)
  let vm = mk_vm () in
  let bytes_per = Layout.object_bytes layout ~nrefs:0 ~nwords:12 in
  let n = 2 * 1024 * 1024 / bytes_per in
  for _ = 1 to n do
    ignore (Vm.alloc vm ~nrefs:0 ~nwords:12)
  done;
  Vm.finish vm;
  let cycles = Gc_stats.cycles (Vm.gc_stats vm) in
  check Alcotest.bool
    (Printf.sprintf "pacing plausible (%d cycles)" cycles)
    true
    (cycles >= 3 && cycles <= 6)

let no_cycle_without_allocation () =
  let vm = mk_vm () in
  let o = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.add_root vm o;
  (* Loads alone never start a cycle. *)
  for _ = 1 to 50_000 do
    ignore (Vm.load_word vm o 0)
  done;
  check Alcotest.int "no cycles from pure reads" 0
    (Gc_stats.cycles (Vm.gc_stats vm))

(* ------------------------------------------------------------------ *)
(* Address-space recycling (forwarding retirement)                     *)
(* ------------------------------------------------------------------ *)

let address_space_bounded () =
  (* Churn many heaps' worth of garbage: freed ranges must be recycled
     after forwarding-table retirement, so the claimed address space stays
     within a small multiple of the heap cap. *)
  let max_heap = 2 * 1024 * 1024 in
  let vm = mk_vm ~max_heap () in
  churn vm 200_000;
  (* ~22 MB allocated *)
  Vm.finish vm;
  let space = Heap.address_space_bytes (Vm.heap vm) in
  check Alcotest.bool
    (Printf.sprintf "address space %d within 4x heap" space)
    true
    (space <= 4 * max_heap)

let address_space_bounded_all_configs () =
  List.iter
    (fun id ->
      let max_heap = 2 * 1024 * 1024 in
      let vm = mk_vm ~config:(Config.of_id id) ~max_heap () in
      churn vm 120_000;
      Vm.finish vm;
      check Alcotest.bool
        (Printf.sprintf "config %d bounded" id)
        true
        (Heap.address_space_bytes (Vm.heap vm) <= 5 * max_heap))
    [ 3; 4; 16; 18 ]

(* ------------------------------------------------------------------ *)
(* Medium objects                                                      *)
(* ------------------------------------------------------------------ *)

let medium_objects_collected_and_relocated () =
  let vm = mk_vm ~max_heap:(8 * 1024 * 1024) () in
  (* Medium objects: bigger than small_obj_max. *)
  let medium_words = (layout.Layout.small_obj_max / 8) + 8 in
  let keeper = Vm.alloc vm ~nrefs:4 ~nwords:0 in
  Vm.add_root vm keeper;
  for i = 0 to 3 do
    let m = Vm.alloc vm ~nrefs:0 ~nwords:medium_words in
    Vm.store_word vm m 0 (100 + i);
    Vm.store_ref vm keeper i (Some m)
  done;
  (* Lots of medium garbage: sparse medium pages become EC candidates. *)
  for _ = 1 to 200 do
    ignore (Vm.alloc vm ~nrefs:0 ~nwords:medium_words)
  done;
  Vm.finish vm;
  for i = 0 to 3 do
    match Vm.load_ref vm keeper i with
    | Some m -> check Alcotest.int "medium payload survives" (100 + i) (Vm.load_word vm m 0)
    | None -> Alcotest.fail "lost medium object"
  done

(* ------------------------------------------------------------------ *)
(* Rooting discipline failure mode                                     *)
(* ------------------------------------------------------------------ *)

let stale_handle_detected () =
  let vm = mk_vm () in
  (* Hold a handle to an object that is never rooted, churn until its page
     is reclaimed, then use it: the collector must detect the bug rather
     than return garbage. *)
  let doomed = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  churn vm 100_000;
  Vm.finish vm;
  let raised =
    try
      ignore (Vm.load_word vm doomed 0);
      false
    with Collector.Invalid_handle _ -> true
  in
  check Alcotest.bool "stale handle use raises Invalid_handle" true raised

(* A handle must stay stale after its arena slot is reused: the regression
   for generation-checked handles.  Drop an object, collect until its page
   is freed (which frees the slot) and a new object takes the slot, then
   use the old handle: it must raise, and must not alias the new object. *)
let stale_handle_after_slot_reuse () =
  let vm = mk_vm () in
  let objs = Heap.objects (Vm.heap vm) in
  let doomed = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.store_word vm doomed 0 42;
  let rounds = ref 0 in
  while Heap_obj.is_live objs doomed && !rounds < 1_000 do
    churn vm 64;
    incr rounds
  done;
  check Alcotest.bool "dropped object freed with its page" false
    (Heap_obj.is_live objs doomed);
  let heir = ref Heap_obj.none in
  let tries = ref 0 in
  while !heir == Heap_obj.none && !tries < 200_000 do
    let o = Vm.alloc vm ~nrefs:0 ~nwords:1 in
    if Heap_obj.slot o = Heap_obj.slot doomed then heir := o;
    incr tries
  done;
  let heir = !heir in
  check Alcotest.bool "slot reused by a new object" true
    (heir != Heap_obj.none);
  check Alcotest.bool "under a new handle" true (heir != doomed);
  Vm.add_root vm heir;
  Vm.store_word vm heir 0 7;
  let holder = Vm.alloc vm ~nrefs:1 ~nwords:0 in
  Vm.add_root vm holder;
  Vm.store_ref vm holder 0 (Some heir);
  let raises f =
    match f () with
    | () -> false
    | exception Collector.Invalid_handle _ -> true
  in
  check Alcotest.bool "load through the stale handle raises" true
    (raises (fun () -> ignore (Vm.load_word vm doomed 0)));
  check Alcotest.bool "store through the stale handle raises" true
    (raises (fun () -> Vm.store_word vm doomed 0 99));
  check Alcotest.bool "ref load through the stale handle raises" true
    (raises (fun () -> ignore (Vm.load_ref vm doomed 0)));
  check Alcotest.bool "touch through the stale handle raises" true
    (raises (fun () -> Vm.touch vm doomed));
  check Alcotest.bool "ref store into the stale handle raises" true
    (raises (fun () -> Vm.store_ref vm doomed 0 (Some heir)));
  check Alcotest.bool "ref store of the stale handle raises" true
    (raises (fun () -> Vm.store_ref vm holder 0 (Some doomed)));
  check Alcotest.bool "the failed store left the slot alone" true
    (Vm.load_ref vm holder 0 = Some heir);
  check Alcotest.int "the slot's new object is untouched" 7
    (Vm.load_word vm heir 0)

(* The range checks hold at the VM entry points too, not only on
   [Heap_obj]/[Page]: one past the end and -1 raise [Invalid_argument],
   for reference slots and payload words alike. *)
let vm_range_checks () =
  let vm = mk_vm () in
  let obj = Vm.alloc vm ~nrefs:2 ~nwords:3 in
  Vm.add_root vm obj;
  let target = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.add_root vm target;
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun slot ->
      rejects (Printf.sprintf "load_ref slot %d" slot) (fun () ->
          ignore (Vm.load_ref vm obj slot));
      rejects (Printf.sprintf "store_ref slot %d" slot) (fun () ->
          Vm.store_ref vm obj slot (Some target));
      rejects (Printf.sprintf "store_ref null into slot %d" slot) (fun () ->
          Vm.store_ref vm obj slot None))
    [ 2; -1 ];
  List.iter
    (fun word ->
      rejects (Printf.sprintf "load_word word %d" word) (fun () ->
          ignore (Vm.load_word vm obj word));
      rejects (Printf.sprintf "store_word word %d" word) (fun () ->
          Vm.store_word vm obj word 5))
    [ 3; -1 ];
  (* The last slot and word in range still work. *)
  Vm.store_ref vm obj 1 (Some target);
  Vm.store_word vm obj 2 9;
  check Alcotest.bool "last slot" true (Vm.load_ref vm obj 1 = Some target);
  check Alcotest.int "last word" 9 (Vm.load_word vm obj 2);
  check Alcotest.bool "first slot still null" true (Vm.load_ref vm obj 0 = None);
  check Alcotest.int "first word still zero" 0 (Vm.load_word vm obj 0)

(* ------------------------------------------------------------------ *)
(* Barrier behaviour                                                   *)
(* ------------------------------------------------------------------ *)

(* Vm.mli's promise that objects "are also kept alive by being stored"
   during a cycle.  [obj] predates the cycle but is held only in an OCaml
   variable at STW1, so root scanning cannot find it; [keeper] is born
   during marking, so marking never traces its slots.  Only the barrier
   on the stored target can mark [obj]; without it the oracle reports a
   reachable pre-cycle object missing from the livemap at Mark End. *)
let store_during_marking_keeps_target () =
  let vm =
    Vm.create ~layout ~verify:true ~config:(Config.of_id 18)
      ~max_heap:(2 * 1024 * 1024) ()
  in
  let col = Vm.collector vm in
  let obj = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.store_word vm obj 0 42;
  check Alcotest.bool "no cycle yet" false (Collector.in_cycle col);
  Collector.start_cycle col;
  let keeper = Vm.alloc vm ~nrefs:1 ~nwords:0 in
  Vm.add_root vm keeper;
  check Alcotest.bool "still marking at the store" true
    (Collector.phase col = Collector.Marking);
  Vm.store_ref vm keeper 0 (Some obj);
  Collector.drain col;
  churn_one_cycle vm;
  Vm.finish vm;
  match Vm.load_ref vm keeper 0 with
  | Some o -> check Alcotest.int "stored object survives" 42 (Vm.load_word vm o 0)
  | None -> Alcotest.fail "stored reference lost"

(* The page [obj] sits on now. *)
let page_of vm obj =
  let heap = Vm.heap vm in
  match Heap.page_of_addr heap (Heap_obj.addr (Heap.objects heap) obj) with
  | Some page -> page
  | None -> Alcotest.fail "object on no page"

(* Most handle uses inside a cycle window take the barrier's marking
   branch.  A use during marking on an object whose page is [In_ec]
   relocates it first, and must mark it on its to-space page: the page it
   left keeps the livemap snapshot that drives that page's evacuation.
   LAZYRELOCATE (config 8, with HOTNESS) defers a cycle's evacuation set
   to the next cycle, so its pages are still [In_ec] when the next STW1
   hands over to marking.  [obj] is held only in an OCaml variable, so no
   root marks or moves it before the handle use. *)
let marking_barrier_on_ec_page () =
  let vm = mk_vm ~config:(Config.of_id 8) () in
  let col = Vm.collector vm in
  let obj = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.store_word vm obj 0 42;
  let from = page_of vm obj in
  (* Fill [from] so it stops being the allocation target. *)
  while page_of vm (Vm.alloc vm ~nrefs:0 ~nwords:12) == from do
    ()
  done;
  check Alcotest.bool "no cycle yet" false (Collector.in_cycle col);
  Collector.start_cycle col;
  Collector.gc_work col ~budget:max_int;
  check Alcotest.bool "lazy cycle ended at STW3" false (Collector.in_cycle col);
  check Alcotest.bool "page deferred in the EC" true
    (from.Page.state = Page.In_ec);
  let old_bit =
    (Heap_obj.addr (Heap.objects (Vm.heap vm)) obj - from.Page.start) / 8
  in
  check Alcotest.bool "unmarked on its page" false
    (Bitmap.get from.Page.livemap old_bit);
  Collector.start_cycle col;
  check Alcotest.bool "marking" true (Collector.phase col = Collector.Marking);
  check Alcotest.bool "page still in the EC" true
    (from.Page.state = Page.In_ec);
  let marked = Gc_stats.objects_marked (Vm.gc_stats vm) in
  check Alcotest.int "load through the barrier" 42 (Vm.load_word vm obj 0);
  let dest = page_of vm obj in
  check Alcotest.bool "relocated off the EC page" true (dest != from);
  check Alcotest.bool "to-space page" true (dest.Page.state = Page.Active);
  check Alcotest.bool "marked on its to-space page" true
    (Page.is_marked_live dest obj);
  check Alcotest.bool "hot on its to-space page" true (Page.is_hot dest obj);
  check Alcotest.bool "old page's livemap bit still clear" false
    (Bitmap.get from.Page.livemap old_bit);
  check Alcotest.int "marked once" (marked + 1)
    (Gc_stats.objects_marked (Vm.gc_stats vm))

(* The marking branch on an object that stays put: the use marks it on
   the page in hand, once. *)
let marking_barrier_in_place () =
  let vm = mk_vm () in
  let col = Vm.collector vm in
  let obj = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Collector.start_cycle col;
  let page = page_of vm obj in
  check Alcotest.bool "unmarked at STW1" false (Page.is_marked_live page obj);
  let marked = Gc_stats.objects_marked (Vm.gc_stats vm) in
  Vm.touch vm obj;
  check Alcotest.bool "not moved" true (page_of vm obj == page);
  check Alcotest.bool "marked on its page" true (Page.is_marked_live page obj);
  Vm.store_word vm obj 0 1;
  ignore (Vm.load_word vm obj 0);
  check Alcotest.int "marked once over three uses" (marked + 1)
    (Gc_stats.objects_marked (Vm.gc_stats vm))

(* A page freed by relocation stays mapped to itself until the next mark
   end retires its forwarding table.  [keeper]'s slot was healed by
   marking to the mark colour, before [obj] moved: after the flip to R it
   is a bad-coloured pointer into the freed page, and the barrier must
   resolve it through that page's forwarding.  The next mark end then
   unmaps the range and hands it back to the allocator. *)
let stale_pointer_into_freed_page () =
  let vm = mk_vm () in
  let col = Vm.collector vm in
  let heap = Vm.heap vm in
  let keeper = Vm.alloc vm ~nrefs:1 ~nwords:0 in
  Vm.add_root vm keeper;
  let obj = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.store_word vm obj 0 42;
  Vm.store_ref vm keeper 0 (Some obj);
  let from = page_of vm obj in
  (* Fill [from] with garbage so it stops being the allocation target and
     is sparse enough to evacuate. *)
  while page_of vm (Vm.alloc vm ~nrefs:0 ~nwords:12) == from do
    ()
  done;
  check Alcotest.bool "no cycle yet" false (Collector.in_cycle col);
  Collector.start_cycle col;
  Collector.gc_work col ~budget:max_int;
  check Alcotest.bool "cycle done" false (Collector.in_cycle col);
  check Alcotest.bool "page freed" true (from.Page.state = Page.Freed);
  check Alcotest.bool "freed range still mapped to its page" true
    (match Heap.page_of_addr heap from.Page.start with
    | Some p -> p == from
    | None -> false);
  let ptr = Heap.get_ref heap keeper 0 in
  check Alcotest.bool "slot is bad-coloured" false
    (Addr.has_color (Collector.good_color col) ptr);
  check Alcotest.bool "slot points into the freed page" true
    (Page.contains from (Addr.addr ptr));
  (match Vm.load_ref vm keeper 0 with
  | Some o ->
      check Alcotest.bool "resolved off the freed page" true
        (page_of vm o != from);
      check Alcotest.int "through its forwarding" 42 (Vm.load_word vm o 0)
  | None -> Alcotest.fail "stale reference lost");
  (* Stop right after the next mark end: with no roots, nothing allocates
     between retirement and the first relocation step. *)
  Vm.remove_root vm keeper;
  Collector.start_cycle col;
  while Collector.phase col = Collector.Marking do
    Collector.gc_work col ~budget:1
  done;
  check Alcotest.bool "unmapped at mark end" true
    (Heap.page_of_addr heap from.Page.start = None);
  let tries = ref 0 in
  while Heap.page_of_addr heap from.Page.start = None && !tries < 4096 do
    ignore (Vm.alloc vm ~nrefs:0 ~nwords:12);
    incr tries
  done;
  match Heap.page_of_addr heap from.Page.start with
  | Some p -> check Alcotest.bool "range reused by a new page" true (p != from)
  | None -> Alcotest.fail "recycled range never reused"

let self_healing_makes_loads_cheap () =
  (* After a colour flip, the first load of a slot takes the slow path; the
     second takes the fast path — visible as a cost difference. *)
  let vm = mk_vm () in
  let src = Vm.alloc vm ~nrefs:1 ~nwords:0 in
  Vm.add_root vm src;
  let target = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.store_ref vm src 0 (Some target);
  churn_one_cycle vm;
  Vm.finish vm;
  (* Slot colour is now stale relative to the post-cycle good colour. *)
  let w0 = Vm.mutator_cycles vm in
  ignore (Vm.load_ref vm src 0);
  let slow = Vm.mutator_cycles vm - w0 in
  let w1 = Vm.mutator_cycles vm in
  ignore (Vm.load_ref vm src 0);
  let fast = Vm.mutator_cycles vm - w1 in
  check Alcotest.bool
    (Printf.sprintf "self-healed load cheaper (%d -> %d)" slow fast)
    true (fast < slow)

let ec_median_tracks_relocate_all () =
  (* RELOCATEALLSMALLPAGES must select more pages than the baseline on the
     same program. *)
  let run config =
    let vm = mk_vm ~config ~max_heap:(4 * 1024 * 1024) () in
    let keeper = Vm.alloc vm ~nrefs:8192 ~nwords:0 in
    Vm.add_root vm keeper;
    for i = 0 to 8191 do
      let o = Vm.alloc vm ~nrefs:0 ~nwords:2 in
      Vm.store_ref vm keeper i (Some o)
    done;
    churn vm 60_000;
    Vm.finish vm;
    Gc_stats.median_small_pages_in_ec (Vm.gc_stats vm)
  in
  let base = run Config.zgc in
  let ra = run (Config.of_id 3) in
  check Alcotest.bool
    (Printf.sprintf "EC median grows (%.1f -> %.1f)" base ra)
    true (ra > base)

let verify_clean_after_churn () =
  List.iter
    (fun id ->
      let vm = mk_vm ~config:(Config.of_id id) () in
      let keeper = Vm.alloc vm ~nrefs:128 ~nwords:0 in
      Vm.add_root vm keeper;
      for i = 0 to 127 do
        let o = Vm.alloc vm ~nrefs:1 ~nwords:1 in
        Vm.store_ref vm keeper i (Some o);
        if i > 0 then
          match Vm.load_ref vm keeper (i - 1) with
          | Some prev -> Vm.store_ref vm prev 0 (Some o)
          | None -> ()
      done;
      churn vm 60_000;
      Vm.finish vm;
      match Invariants.check (Vm.collector vm) ~edge:Collector.Cycle_done with
      | Ok () -> ()
      | Error errors ->
          Alcotest.failf "config %d invariants: %s" id (List.hd errors))
    [ 0; 4; 16; 18 ]

let verify_detects_corruption () =
  (* Sanity: the verifier is not a rubber stamp — hand-corrupt a slot and
     it must object. *)
  let vm = mk_vm () in
  let keeper = Vm.alloc vm ~nrefs:1 ~nwords:0 in
  Vm.add_root vm keeper;
  let o = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.store_ref vm keeper 0 (Some o);
  (* Bypass the VM and write a wild pointer. *)
  Heap.set_ref (Vm.heap vm) keeper 0 (Addr.make Addr.M0 0xdead0000);
  (match Invariants.check (Vm.collector vm) ~edge:Collector.Cycle_done with
  | Ok () -> Alcotest.fail "verifier accepted a wild pointer"
  | Error _ -> ());
  (* Restore sanity for a clean teardown. *)
  Heap.set_ref (Vm.heap vm) keeper 0 Addr.null

let set_cold_confidence_rejects_nan () =
  let col = Vm.collector (mk_vm ~config:(Config.of_id 6) ()) in
  Alcotest.check_raises "NaN"
    (Invalid_argument "Collector.set_cold_confidence: outside [0,1]")
    (fun () -> Collector.set_cold_confidence col Float.nan);
  check (Alcotest.float 0.0) "unchanged" 0.5 (Collector.cold_confidence col)

let suite =
  [
    ( "core.collector_unit",
      [
        case "colour windows (Fig. 2)" `Quick color_window_sequence;
        case "phase progression" `Quick phase_progression;
        case "allocation-budget pacing" `Quick allocation_budget_pacing;
        case "no cycle without allocation" `Quick no_cycle_without_allocation;
        case "address space bounded" `Quick address_space_bounded;
        case "address space bounded (HCSGC configs)" `Slow
          address_space_bounded_all_configs;
        case "medium objects survive" `Quick medium_objects_collected_and_relocated;
        case "stale handle detected" `Quick stale_handle_detected;
        case "stale handle after slot reuse" `Quick
          stale_handle_after_slot_reuse;
        case "vm range checks" `Quick vm_range_checks;
        case "store during marking keeps target" `Quick
          store_during_marking_keeps_target;
        case "marking barrier on an EC page" `Quick marking_barrier_on_ec_page;
        case "marking barrier in place" `Quick marking_barrier_in_place;
        case "stale pointer into a freed page" `Quick
          stale_pointer_into_freed_page;
        case "self-healing cheapens loads" `Quick self_healing_makes_loads_cheap;
        case "relocate-all enlarges EC" `Quick ec_median_tracks_relocate_all;
        case "verifier clean after churn" `Slow verify_clean_after_churn;
        case "verifier detects corruption" `Quick verify_detects_corruption;
        case "set_cold_confidence rejects NaN" `Quick
          set_cold_confidence_rejects_nan;
      ] );
  ]
