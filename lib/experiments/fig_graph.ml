module Vm = Hcsgc_runtime.Vm
module Layout = Hcsgc_heap.Layout
module Rng = Hcsgc_util.Rng
module Dataset = Hcsgc_graph.Dataset
module Generator = Hcsgc_graph.Generator
module Connectivity = Hcsgc_graph.Connectivity
module Bron_kerbosch = Hcsgc_graph.Bron_kerbosch

let layout = Layout.scaled ~small_page:(64 * 1024)

(* Estimated live bytes of a materialised graph: node objects + root table
   + one edge object per edge + adjacency cells (a 64-byte cell per
   ~cell_arity arcs). *)
let graph_bytes (d : Dataset.t) =
  (d.Dataset.nodes * 48) + (d.Dataset.edges * 40)
  + (2 * d.Dataset.edges / 4 * 64)

let make_vm_for ?(heap_mult = 6) d config =
  (* Sized so GC cycles are driven by the loader's and the algorithm's
     allocation (the paper's heaps are generous; ours scale with the graph
     so cycle counts stay comparable at reduced run lengths). *)
  let max_heap = max (6 * 1024 * 1024) (heap_mult * graph_bytes d) in
  Vm.create ~layout ~machine_config:Scaled_machine.config ~config ~max_heap ()

let build_graph vm (d : Dataset.t) ~run =
  let rng = Rng.create (0x9e37 + run) in
  Generator.build vm ~rng ~model:d.Dataset.model ~nodes:d.Dataset.nodes
    ~edges:d.Dataset.edges

(* Content-addressing key: the scaled dataset's actual shape (not just its
   display name) plus the algorithm's own knobs. *)
let dataset_key (d : Dataset.t) =
  Printf.sprintf "%s;nodes=%d;edges=%d" d.Dataset.name d.Dataset.nodes
    d.Dataset.edges

let cc_experiment ~dataset ~scale () =
  let d = Dataset.scaled dataset ~factor:scale in
  {
    Runner.name = Printf.sprintf "CC %s /%d" d.Dataset.name scale;
    key = Printf.sprintf "cc;%s;passes=6" (dataset_key d);
    make_vm = make_vm_for d;
    workload =
      (fun vm ~run ->
        let g = build_graph vm d ~run in
        (* JGraphT's BiconnectivityInspector repeats the same traversal
           internally for its various queries; six component passes plus the
           articulation DFS model that recurring stable order. *)
        ignore (Connectivity.analyse ~passes:6 g);
        Hcsgc_graph.Mgraph.dispose g);
  }

let mc_experiment ?(max_expansions = 30_000) ~dataset ~scale () =
  let d = Dataset.scaled dataset ~factor:scale in
  {
    Runner.name = Printf.sprintf "MC %s /%d" d.Dataset.name scale;
    key = Printf.sprintf "mc;%s;maxexp=%d" (dataset_key d) max_expansions;
    make_vm = make_vm_for ~heap_mult:4 d;
    workload =
      (fun vm ~run ->
        let g = build_graph vm d ~run in
        ignore (Bron_kerbosch.run ~max_expansions g);
        Hcsgc_graph.Mgraph.dispose g);
  }

let cc_expectation =
  "few GC cycles (mostly during graph loading), but enough to reorganise \
   objects into traversal order: reduced cache misses and execution time \
   for the big-EC configurations"

let mc_expectation =
  "periodic GC cycles driven by the algorithm's allocation; speedups up to \
   ~20-45%; staircase as COLDCONFIDENCE rises in configs 5-7, 8-10, 11-13, \
   14-16; config 3 well ahead of config 2 (hot objects on well-populated \
   pages need the bigger EC)"

let fig7 ~runs ~scale =
  Report.plan ~title:"Fig. 7 — connected components, uk dataset"
    ~expectation:cc_expectation ~runs
    (cc_experiment ~dataset:Dataset.uk_cc ~scale ())

let fig8 ~runs ~scale =
  Report.plan ~title:"Fig. 8 — connected components, enwiki dataset"
    ~expectation:cc_expectation ~runs
    (cc_experiment ~dataset:Dataset.enwiki_cc ~scale ())

let fig9 ~runs ~scale =
  Report.plan ~title:"Fig. 9 — Bron-Kerbosch (MC), uk dataset"
    ~expectation:mc_expectation ~runs
    (mc_experiment ~dataset:Dataset.uk_mc ~scale ())

let fig10 ~runs ~scale =
  Report.plan ~title:"Fig. 10 — Bron-Kerbosch (MC), enwiki dataset"
    ~expectation:mc_expectation ~runs
    (mc_experiment ~dataset:Dataset.enwiki_mc ~scale ())
