(* Cross-cutting sanity tests: cost-model ordering, the scaled machine,
   miscellaneous API corners. *)

module Cost = Hcsgc_core.Cost
module Scaled_machine = Hcsgc_experiments.Scaled_machine
module H = Hcsgc_memsim.Hierarchy
module C = Hcsgc_memsim.Cache
module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Layout = Hcsgc_heap.Layout
module Connectivity = Hcsgc_graph.Connectivity
module Mgraph = Hcsgc_graph.Mgraph

let check = Alcotest.check
let case = Alcotest.test_case

let cost_model_ordering () =
  (* Relative magnitudes the reproduction depends on. *)
  check Alcotest.bool "fast ops are cheap" true
    (Cost.op_base < Cost.barrier_slow);
  check Alcotest.bool "CAS below slow path" true
    (Cost.hotmap_cas <= Cost.barrier_slow);
  check Alcotest.bool "pauses dominate everything per-object" true
    (Cost.stw_pause > 100 * Cost.relocate_fixed);
  check Alcotest.bool "page allocation amortised" true
    (Cost.alloc_page > Cost.alloc);
  List.iter
    (fun c -> check Alcotest.bool "positive" true (c > 0))
    [
      Cost.op_base; Cost.alloc; Cost.alloc_page; Cost.barrier_slow;
      Cost.hotmap_cas; Cost.fwd_lookup; Cost.fwd_insert; Cost.relocate_fixed;
      Cost.mark_object; Cost.scan_slot; Cost.stw_pause; Cost.root_fixup;
      Cost.ec_select_per_page;
    ]

let scaled_machine_proportions () =
  let c = Scaled_machine.config in
  let d = H.default_config in
  (* Same line size and associativity; capacities scaled down together. *)
  check Alcotest.int "line size" d.H.l1.C.line_bytes c.H.l1.C.line_bytes;
  check Alcotest.int "L1 ways" d.H.l1.C.ways c.H.l1.C.ways;
  check Alcotest.bool "L1 smaller" true (c.H.l1.C.size_bytes < d.H.l1.C.size_bytes);
  check Alcotest.bool "LLC/L1 ratio preserved within 2x" true
    (let r_d = d.H.llc.C.size_bytes / d.H.l1.C.size_bytes in
     let r_c = c.H.llc.C.size_bytes / c.H.l1.C.size_bytes in
     r_c >= r_d / 2 && r_c <= r_d * 2);
  check Alcotest.bool "same latencies" true
    (c.H.lat_l1 = d.H.lat_l1 && c.H.lat_mem = d.H.lat_mem)

let connectivity_counts_visits () =
  let vm =
    Vm.create
      ~layout:(Layout.scaled ~small_page:(16 * 1024))
      ~config:Config.zgc ~max_heap:(8 * 1024 * 1024) ()
  in
  let g = Mgraph.create vm ~n:6 in
  List.iter (fun (a, b) -> Mgraph.add_edge g a b) [ (0, 1); (1, 2); (3, 4) ];
  let r = Connectivity.analyse ~passes:2 g in
  check Alcotest.bool "visits counted" true (r.Connectivity.visits > 0);
  check Alcotest.int "components stable across passes" 3 r.Connectivity.components

let mgraph_dispose_unroots () =
  let vm =
    Vm.create
      ~layout:(Layout.scaled ~small_page:(16 * 1024))
      ~config:Config.zgc ~max_heap:(1024 * 1024) ()
  in
  let g = Mgraph.create vm ~n:100 in
  for i = 0 to 98 do
    Mgraph.add_edge g i (i + 1)
  done;
  Mgraph.dispose g;
  (* The graph is now collectable: churn must not run out of memory. *)
  for _ = 1 to 60_000 do
    ignore (Vm.alloc vm ~nrefs:0 ~nwords:12)
  done;
  Vm.finish vm;
  check Alcotest.bool "heap survived churn after dispose" true
    (Hcsgc_heap.Heap.used_ratio (Vm.heap vm) <= 1.0)

let saturated_note_nonempty () =
  check Alcotest.bool "note text" true
    (String.length Scaled_machine.saturated_note > 0)

let suite =
  [
    ( "misc",
      [
        case "cost model ordering" `Quick cost_model_ordering;
        case "scaled machine proportions" `Quick scaled_machine_proportions;
        case "connectivity visit counting" `Quick connectivity_counts_visits;
        case "mgraph dispose unroots" `Quick mgraph_dispose_unroots;
        case "saturated note" `Quick saturated_note_nonempty;
      ] );
  ]
