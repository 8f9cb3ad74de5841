(* Quickstart: create a VM, allocate a managed object graph, watch HCSGC
   relocate it, and read the statistics the paper's evaluation is built on.

   Run with:  dune exec examples/quickstart.exe
   Its output is pinned by examples/quickstart.t. *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module Layout = Hcsgc_heap.Layout
module H = Hcsgc_memsim.Hierarchy

let () =
  (* 1. Pick a configuration.  [Config.zgc] is the unmodified baseline;
     Table 2's rows are available as [Config.of_id 0..18]; or build your
     own knob combination with [Config.make]. *)
  let config =
    Config.make ~hotness:true ~coldpage:true ~cold_confidence:1.0
      ~lazy_relocate:true ()
  in
  Printf.printf "configuration: %s\n" (Config.to_string config);

  (* 2. Create a VM: a simulated heap + cache hierarchy + the collector.
     The scaled layout uses 64 KB "small pages" so a 16 MB heap spans
     hundreds of pages, like a real multi-GB ZGC heap. *)
  let vm =
    Vm.create
      ~layout:(Layout.scaled ~small_page:(64 * 1024))
      ~config
      ~max_heap:(16 * 1024 * 1024)
      ()
  in

  (* 3. Allocate a managed object graph.  An object has reference slots and
     scalar payload words; handles survive relocation.  Anything held across
     allocations must be reachable from a registered root. *)
  let table = Vm.alloc vm ~nrefs:10_000 ~nwords:0 in
  Vm.add_root vm table;
  for i = 0 to 9_999 do
    let item = Vm.alloc vm ~nrefs:0 ~nwords:2 in
    Vm.store_word vm item 0 i;
    Vm.store_ref vm table i (Some item)
  done;

  (* 4. Exercise a stable access pattern and allocate garbage: the garbage
     triggers GC cycles, and the accesses teach HCSGC which objects are hot
     (and in what order the mutator wants them laid out). *)
  let rng = Hcsgc_util.Rng.create 1 in
  let checksum = ref 0 in
  for _loop = 1 to 10 do
    let rng = Hcsgc_util.Rng.copy rng in
    for _ = 1 to 5_000 do
      let i = Hcsgc_util.Rng.int rng 2_500 (* hot quarter of the table *) in
      (match Vm.load_ref vm table i with
      | Some item -> checksum := !checksum + (Vm.load_word vm item 0 land 0xff)
      | None -> assert false);
      ignore (Vm.alloc vm ~nrefs:0 ~nwords:16) (* transient garbage *)
    done
  done;
  Vm.finish vm;

  (* 5. Read the results: simulated execution time, perf-style cache
     counters, and the GC statistics of §4.2. *)
  let st = Vm.gc_stats vm in
  let c = Vm.counters vm in
  Printf.printf "checksum:          %d\n" !checksum;
  Printf.printf "execution time:    %d simulated cycles\n" (Vm.wall_cycles vm);
  Printf.printf "GC cycles:         %d\n" (Gc_stats.cycles st);
  Printf.printf "EC median:         %.1f small pages/cycle\n"
    (Gc_stats.median_small_pages_in_ec st);
  Printf.printf "relocated:         %d by mutator (access order), %d by GC\n"
    (Gc_stats.objects_relocated_by_mutator st)
    (Gc_stats.objects_relocated_by_gc st);
  Printf.printf "hotness flags:     %d\n" (Gc_stats.hot_flags st);
  Printf.printf "loads / L1m / LLCm: %d / %d / %d\n" c.H.loads c.H.l1_misses
    c.H.llc_misses
