(* Tests for hcsgc.core: configuration validation (Table 2), GC statistics,
   and collector behaviour through the VM (cycle structure, marking,
   relocation, hotness, EC selection, the tuning knobs). *)

module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module Collector = Hcsgc_core.Collector
module Vm = Hcsgc_runtime.Vm
module Layout = Hcsgc_heap.Layout
module Heap = Hcsgc_heap.Heap
module Page = Hcsgc_heap.Page
module Heap_obj = Hcsgc_heap.Heap_obj

let check = Alcotest.check
let case = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let config_table2_complete () =
  check Alcotest.int "19 configurations" 19 (List.length Config.table2);
  check Alcotest.int "id_count" 19 Config.id_count;
  List.iter
    (fun (id, c) ->
      match Config.validate c with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "config %d invalid: %s" id e)
    Config.table2

let config_table2_spot_checks () =
  (* Row/column checks against the paper's Table 2. *)
  let c5 = Config.of_id 5 in
  check Alcotest.bool "5: hotness only" true
    (c5.Config.hotness && (not c5.Config.coldpage)
    && c5.Config.cold_confidence = 0.0
    && (not c5.Config.relocate_all_small_pages)
    && not c5.Config.lazy_relocate);
  let c16 = Config.of_id 16 in
  check Alcotest.bool "16: hot+cp+cc1+lazy" true
    (c16.Config.hotness && c16.Config.coldpage
    && c16.Config.cold_confidence = 1.0
    && c16.Config.lazy_relocate
    && not c16.Config.relocate_all_small_pages);
  let c18 = Config.of_id 18 in
  check Alcotest.bool "18: hot+cp+ra+lazy" true
    (c18.Config.hotness && c18.Config.coldpage
    && c18.Config.relocate_all_small_pages && c18.Config.lazy_relocate);
  check Alcotest.bool "0 and 1 both ZGC" true
    (Config.equal (Config.of_id 0) Config.zgc
    && Config.equal (Config.of_id 1) Config.zgc)

let config_validation () =
  check Alcotest.bool "coldpage without hotness rejected" true
    (Result.is_error
       (Config.validate
          { Config.zgc with Config.coldpage = true }));
  check Alcotest.bool "cc without hotness rejected" true
    (Result.is_error
       (Config.validate { Config.zgc with Config.cold_confidence = 0.5 }));
  check Alcotest.bool "cc out of range rejected" true
    (Result.is_error
       (Config.validate
          { Config.zgc with Config.hotness = true; cold_confidence = 1.5 }));
  Alcotest.check_raises "make raises"
    (Invalid_argument "Config: COLDPAGE requires HOTNESS to be enabled")
    (fun () -> ignore (Config.make ~coldpage:true ()))

let config_of_id_bounds () =
  Alcotest.check_raises "id 19" (Invalid_argument "Config.of_id: id must be in 0-18")
    (fun () -> ignore (Config.of_id 19))

let config_to_string () =
  check Alcotest.string "zgc" "zgc" (Config.to_string Config.zgc);
  check Alcotest.string "cfg 16" "hot+cp+cc1.0+lazy"
    (Config.to_string (Config.of_id 16))

(* ------------------------------------------------------------------ *)
(* Gc_stats                                                            *)
(* ------------------------------------------------------------------ *)

let stats_cycles_and_median () =
  let st = Gc_stats.create () in
  check Alcotest.int "first cycle is 1" 1 (Gc_stats.on_cycle_start st);
  Gc_stats.on_ec_selected st ~small:7;
  ignore (Gc_stats.on_cycle_start st);
  Gc_stats.on_ec_selected st ~small:3;
  ignore (Gc_stats.on_cycle_start st);
  Gc_stats.on_ec_selected st ~small:5;
  check Alcotest.int "cycles" 3 (Gc_stats.cycles st);
  check (Alcotest.float 1e-9) "median of [7;3;5]" 5.0
    (Gc_stats.median_small_pages_in_ec st)

let stats_median_even () =
  let st = Gc_stats.create () in
  List.iter
    (fun n ->
      ignore (Gc_stats.on_cycle_start st);
      Gc_stats.on_ec_selected st ~small:n)
    [ 2; 8; 4; 6 ];
  check (Alcotest.float 1e-9) "median of [2;8;4;6]" 5.0
    (Gc_stats.median_small_pages_in_ec st)

let stats_relocation_attribution () =
  let st = Gc_stats.create () in
  Gc_stats.on_relocate st ~by_mutator:true ~bytes:32;
  Gc_stats.on_relocate st ~by_mutator:false ~bytes:64;
  Gc_stats.on_relocate st ~by_mutator:false ~bytes:64;
  check Alcotest.int "mutator" 1 (Gc_stats.objects_relocated_by_mutator st);
  check Alcotest.int "gc" 2 (Gc_stats.objects_relocated_by_gc st);
  check Alcotest.int "bytes" 160 (Gc_stats.bytes_relocated st)

let stats_ec_requires_cycle () =
  let st = Gc_stats.create () in
  Alcotest.check_raises "no cycle"
    (Invalid_argument "Gc_stats.on_ec_selected: no cycle in progress")
    (fun () -> Gc_stats.on_ec_selected st ~small:1)

(* ------------------------------------------------------------------ *)
(* Collector behaviour (driven through a small VM)                     *)
(* ------------------------------------------------------------------ *)

let layout = Layout.scaled ~small_page:(16 * 1024)

let mk_vm ?(config = Config.zgc) ?(max_heap = 4 * 1024 * 1024) () =
  Vm.create ~layout ~config ~max_heap ()

(* Allocate enough garbage to push the collector through [n] full cycles. *)
let churn_cycles vm n =
  let target = Gc_stats.cycles (Vm.gc_stats vm) + n in
  while Gc_stats.cycles (Vm.gc_stats vm) < target do
    ignore (Vm.alloc vm ~nrefs:0 ~nwords:16)
  done;
  Vm.finish vm

let collector_runs_cycles () =
  let vm = mk_vm () in
  churn_cycles vm 3;
  let st = Vm.gc_stats vm in
  check Alcotest.bool "cycles ran" true (Gc_stats.cycles st >= 3);
  check Alcotest.bool "pages were freed" true (Gc_stats.pages_freed st > 0);
  check Alcotest.bool "three pauses per cycle" true
    (Gc_stats.stw_pauses st >= 3 * Gc_stats.cycles st)

let rooted_objects_survive () =
  let vm = mk_vm () in
  let keeper = Vm.alloc vm ~nrefs:4 ~nwords:0 in
  Vm.add_root vm keeper;
  let vals = [ 11; 22; 33; 44 ] in
  List.iteri
    (fun i v ->
      let o = Vm.alloc vm ~nrefs:0 ~nwords:1 in
      Vm.store_word vm o 0 v;
      Vm.store_ref vm keeper i (Some o))
    vals;
  churn_cycles vm 4;
  List.iteri
    (fun i v ->
      match Vm.load_ref vm keeper i with
      | Some o -> check Alcotest.int "value survives" v (Vm.load_word vm o 0)
      | None -> Alcotest.fail "lost a rooted object")
    vals

let object_graph_integrity_after_gc () =
  (* A linked list must stay intact across cycles and relocations. *)
  let vm = mk_vm ~config:(Config.of_id 18) () in
  let head = Vm.alloc vm ~nrefs:1 ~nwords:1 in
  Vm.add_root vm head;
  Vm.store_word vm head 0 0;
  let n = 500 in
  let tail = ref head in
  for i = 1 to n do
    let node = Vm.alloc vm ~nrefs:1 ~nwords:1 in
    Vm.store_word vm node 0 i;
    Vm.store_ref vm !tail 0 (Some node);
    tail := node
  done;
  churn_cycles vm 5;
  (* Walk and verify. *)
  let rec walk node expect =
    check Alcotest.int "list payload" expect (Vm.load_word vm node 0);
    match Vm.load_ref vm node 0 with
    | Some next -> walk next (expect + 1)
    | None -> check Alcotest.int "list length" n expect
  in
  walk head 0

let relocation_happens_and_handles_survive () =
  let vm = mk_vm ~config:(Config.of_id 3) () in
  (* relocate-all *)
  let keeper = Vm.alloc vm ~nrefs:64 ~nwords:0 in
  Vm.add_root vm keeper;
  let objs =
    Array.init 64 (fun i ->
        let o = Vm.alloc vm ~nrefs:0 ~nwords:1 in
        Vm.store_word vm o 0 i;
        Vm.store_ref vm keeper i (Some o);
        o)
  in
  churn_cycles vm 4;
  (* Touch everything so pending relocations resolve. *)
  Array.iteri (fun i o -> check Alcotest.int "payload" i (Vm.load_word vm o 0)) objs;
  let relocations o = Heap_obj.relocations (Heap.objects (Vm.heap vm)) o in
  let moved = Array.exists (fun o -> relocations o > 0) objs in
  check Alcotest.bool "some objects relocated" true moved;
  check Alcotest.bool "stats recorded relocations" true
    (Gc_stats.objects_relocated_by_gc (Vm.gc_stats vm)
     + Gc_stats.objects_relocated_by_mutator (Vm.gc_stats vm)
    > 0)

let baseline_zgc_skips_dense_pages () =
  (* Under plain ZGC, fully-live pages must not be evacuated. *)
  let vm = mk_vm ~config:Config.zgc () in
  let n = 512 in
  let keeper = Vm.alloc vm ~nrefs:n ~nwords:0 in
  Vm.add_root vm keeper;
  let objs =
    Array.init n (fun i ->
        let o = Vm.alloc vm ~nrefs:0 ~nwords:2 in
        Vm.store_ref vm keeper i (Some o);
        o)
  in
  churn_cycles vm 4;
  let moved =
    Array.fold_left
      (fun acc o -> acc + Heap_obj.relocations (Heap.objects (Vm.heap vm)) o)
      0 objs
  in
  check Alcotest.int "no live-dense page evacuated" 0 moved

let lazy_relocate_defers_to_mutator () =
  (* With LAZYRELOCATE, objects accessed between cycles are relocated by the
     mutator (access order), visible in the attribution stats. *)
  let vm = mk_vm ~config:(Config.of_id 4) () in
  let n = 512 in
  let keeper = Vm.alloc vm ~nrefs:n ~nwords:0 in
  Vm.add_root vm keeper;
  for i = 0 to n - 1 do
    let o = Vm.alloc vm ~nrefs:0 ~nwords:2 in
    Vm.store_ref vm keeper i (Some o)
  done;
  for _round = 1 to 6 do
    (* Touch all objects, then churn a cycle. *)
    for i = 0 to n - 1 do
      match Vm.load_ref vm keeper i with
      | Some o -> ignore (Vm.load_word vm o 0)
      | None -> Alcotest.fail "lost object"
    done;
    churn_cycles vm 1
  done;
  (* Drain pending relocation for stable stats. *)
  for i = 0 to n - 1 do
    ignore (Vm.load_ref vm keeper i)
  done;
  let st = Vm.gc_stats vm in
  check Alcotest.bool "mutator performed relocations" true
    (Gc_stats.objects_relocated_by_mutator st > 0)

let hotness_flags_accessed_objects () =
  let vm = mk_vm ~config:(Config.of_id 5) () in
  let keeper = Vm.alloc vm ~nrefs:8 ~nwords:0 in
  Vm.add_root vm keeper;
  for i = 0 to 7 do
    let o = Vm.alloc vm ~nrefs:0 ~nwords:1 in
    Vm.store_ref vm keeper i (Some o)
  done;
  churn_cycles vm 2;
  for _ = 1 to 3 do
    for i = 0 to 7 do
      ignore (Vm.load_ref vm keeper i)
    done;
    churn_cycles vm 1
  done;
  check Alcotest.bool "hot flags recorded" true
    (Gc_stats.hot_flags (Vm.gc_stats vm) > 0)

let zgc_records_no_hotness () =
  let vm = mk_vm ~config:Config.zgc () in
  let keeper = Vm.alloc vm ~nrefs:8 ~nwords:0 in
  Vm.add_root vm keeper;
  for i = 0 to 7 do
    let o = Vm.alloc vm ~nrefs:0 ~nwords:1 in
    Vm.store_ref vm keeper i (Some o)
  done;
  for _ = 1 to 3 do
    for i = 0 to 7 do
      ignore (Vm.load_ref vm keeper i)
    done;
    churn_cycles vm 1
  done;
  check Alcotest.int "no hot flags with HOTNESS off" 0
    (Gc_stats.hot_flags (Vm.gc_stats vm))

let good_color_alternates () =
  let vm = mk_vm () in
  let col = Vm.collector vm in
  let seen = ref [] in
  for _ = 1 to 4 do
    churn_cycles vm 1;
    seen := Collector.good_color col :: !seen
  done;
  (* After each completed cycle the good colour is R (the relocation window
     colour persists between cycles). *)
  List.iter
    (fun c ->
      check Alcotest.bool "good colour is R between cycles" true
        (c = Hcsgc_heap.Addr.R))
    !seen

let large_objects_never_relocate () =
  let vm = mk_vm () in
  (* Bigger than medium_obj_max -> large page. *)
  let words = (layout.Layout.medium_obj_max / 8) + 8 in
  let big = Vm.alloc vm ~nrefs:0 ~nwords:words in
  Vm.add_root vm big;
  Vm.store_word vm big 0 99;
  churn_cycles vm 3;
  check Alcotest.int "large object in place" 0
    (Heap_obj.relocations (Heap.objects (Vm.heap vm)) big);
  check Alcotest.int "payload intact" 99 (Vm.load_word vm big 0)

let out_of_memory_raised () =
  let vm = mk_vm ~max_heap:(256 * 1024) () in
  let keeper = Vm.alloc vm ~nrefs:4096 ~nwords:0 in
  Vm.add_root vm keeper;
  Alcotest.check_raises "OOM" Collector.Out_of_memory (fun () ->
      (* Keep everything live: the heap must eventually overflow. *)
      for i = 0 to 4095 do
        let o = Vm.alloc vm ~nrefs:0 ~nwords:30 in
        Vm.store_ref vm keeper i (Some o)
      done)

let cold_page_segregation () =
  (* With COLDPAGE on and a clear hot/cold split, pages coming out of GC
     relocation are strongly segregated. *)
  let vm = mk_vm ~config:(Config.of_id 17) () in
  (* hot+cp+ra *)
  let n = 1024 in
  let keeper = Vm.alloc vm ~nrefs:n ~nwords:0 in
  Vm.add_root vm keeper;
  for i = 0 to n - 1 do
    let o = Vm.alloc vm ~nrefs:0 ~nwords:2 in
    Vm.store_word vm o 0 i;
    Vm.store_ref vm keeper i (Some o)
  done;
  (* Touch only the first quarter, repeatedly, across several cycles. *)
  for _round = 1 to 6 do
    for i = 0 to (n / 4) - 1 do
      ignore (Vm.load_ref vm keeper i)
    done;
    churn_cycles vm 1
  done;
  (* Count pages whose population is mixed hot/cold by our ground truth
     (id < n/4 = hot). *)
  let heap = Vm.heap vm in
  let page_of o =
    Option.get (Heap.page_of_addr heap (Heap_obj.addr (Heap.objects heap) o))
  in
  let tbl = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    match Vm.load_ref vm keeper i with
    | Some o ->
        let p = (page_of o).Page.id in
        let hot, cold = Option.value (Hashtbl.find_opt tbl p) ~default:(0, 0) in
        if i < n / 4 then Hashtbl.replace tbl p (hot + 1, cold)
        else Hashtbl.replace tbl p (hot, cold + 1)
    | None -> Alcotest.fail "lost object"
  done;
  let mixed = ref 0 and pure = ref 0 in
  Hashtbl.iter
    (fun _ (h, c) -> if h > 0 && c > 0 then incr mixed else incr pure)
    tbl;
  check Alcotest.bool "segregation dominates" true (!pure >= !mixed)

let suite =
  [
    ( "core.config",
      [
        case "Table 2 complete & valid" `Quick config_table2_complete;
        case "Table 2 spot checks" `Quick config_table2_spot_checks;
        case "validation rules" `Quick config_validation;
        case "of_id bounds" `Quick config_of_id_bounds;
        case "to_string" `Quick config_to_string;
      ] );
    ( "core.gc_stats",
      [
        case "cycles & EC median" `Quick stats_cycles_and_median;
        case "median (even count)" `Quick stats_median_even;
        case "relocation attribution" `Quick stats_relocation_attribution;
        case "EC requires cycle" `Quick stats_ec_requires_cycle;
      ] );
    ( "core.collector",
      [
        case "cycles run and free memory" `Quick collector_runs_cycles;
        case "rooted objects survive" `Quick rooted_objects_survive;
        case "object graph integrity (cfg 18)" `Quick
          object_graph_integrity_after_gc;
        case "relocation happens (relocate-all)" `Quick
          relocation_happens_and_handles_survive;
        case "ZGC skips dense pages" `Quick baseline_zgc_skips_dense_pages;
        case "lazy relocate engages mutator" `Quick
          lazy_relocate_defers_to_mutator;
        case "hotness flags accesses" `Quick hotness_flags_accessed_objects;
        case "no hotness under ZGC" `Quick zgc_records_no_hotness;
        case "good colour is R between cycles" `Quick good_color_alternates;
        case "large objects never relocate" `Quick large_objects_never_relocate;
        case "out of memory" `Quick out_of_memory_raised;
        case "cold page segregation (cfg 17)" `Quick cold_page_segregation;
      ] );
  ]
