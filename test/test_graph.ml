(* Tests for hcsgc.graph: managed graphs, generators, datasets, and the
   CC / biconnectivity / Bron-Kerbosch algorithms (validated against known
   small graphs and an OCaml-side reference implementation). *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Layout = Hcsgc_heap.Layout
module Rng = Hcsgc_util.Rng
module Mgraph = Hcsgc_graph.Mgraph
module Generator = Hcsgc_graph.Generator
module Dataset = Hcsgc_graph.Dataset
module Connectivity = Hcsgc_graph.Connectivity
module Bron_kerbosch = Hcsgc_graph.Bron_kerbosch

let check = Alcotest.check
let case = Alcotest.test_case

let layout = Layout.scaled ~small_page:(16 * 1024)

let mk_vm ?(config = Config.zgc) ?(max_heap = 16 * 1024 * 1024) () =
  Vm.create ~layout ~config ~max_heap ()

let graph_of_edges vm n edges =
  let g = Mgraph.create vm ~n in
  List.iter (fun (a, b) -> Mgraph.add_edge g a b) edges;
  g

(* ------------------------------------------------------------------ *)
(* Mgraph                                                              *)
(* ------------------------------------------------------------------ *)

let mgraph_basic () =
  let vm = mk_vm () in
  let g = graph_of_edges vm 4 [ (0, 1); (1, 2); (0, 3) ] in
  check Alcotest.int "n" 4 (Mgraph.n g);
  check Alcotest.int "arcs (undirected x2)" 6 (Mgraph.edge_count g);
  check (Alcotest.list Alcotest.int) "neighbors of 0 (sorted)" [ 1; 3 ]
    (List.sort compare (Array.to_list (Mgraph.neighbors g 0)));
  check Alcotest.int "degree of 1" 2 (Mgraph.degree g 1);
  check Alcotest.int "degree of 2" 1 (Mgraph.degree g 2)

let mgraph_node_identity () =
  let vm = mk_vm () in
  let g = Mgraph.create vm ~n:5 in
  for i = 0 to 4 do
    check Alcotest.int "node id readable" i (Mgraph.node_id g (Mgraph.node g i))
  done;
  Alcotest.check_raises "bad vertex"
    (Invalid_argument "Mgraph.node: vertex out of range") (fun () ->
      ignore (Mgraph.node g 5))

let mgraph_many_neighbors () =
  (* Adjacency chains spanning several cells. *)
  let vm = mk_vm () in
  let g = Mgraph.create vm ~n:40 in
  for i = 1 to 39 do
    Mgraph.add_arc g 0 i
  done;
  check Alcotest.int "degree across cells" 39 (Mgraph.degree g 0);
  check (Alcotest.list Alcotest.int) "all neighbours present"
    (List.init 39 (fun i -> i + 1))
    (List.sort compare (Array.to_list (Mgraph.neighbors g 0)))

let mgraph_survives_gc () =
  let vm = mk_vm ~config:(Config.of_id 18) () in
  let g = graph_of_edges vm 30 (List.init 29 (fun i -> (i, i + 1))) in
  (* Churn garbage through several cycles, then verify the structure. *)
  for _ = 1 to 60_000 do
    ignore (Vm.alloc vm ~nrefs:0 ~nwords:8)
  done;
  Vm.finish vm;
  for i = 0 to 28 do
    check Alcotest.bool "chain edge intact" true
      (Array.mem (i + 1) (Mgraph.neighbors g i))
  done

(* ------------------------------------------------------------------ *)
(* Generator & datasets                                                *)
(* ------------------------------------------------------------------ *)

let generator_counts () =
  let rng = Rng.create 5 in
  let es = Generator.edges ~rng ~model:Generator.Preferential ~nodes:100 ~edges:500 in
  check Alcotest.int "edge count" 500 (Array.length es);
  Array.iter
    (fun (a, b) ->
      check Alcotest.bool "endpoints in range" true
        (a >= 0 && a < 100 && b >= 0 && b < 100))
    es

let generator_deterministic () =
  let gen () =
    Generator.edges ~rng:(Rng.create 9) ~model:Generator.Preferential
      ~nodes:50 ~edges:200
  in
  check Alcotest.bool "same seed, same edges" true (gen () = gen ())

let generator_power_law_skew () =
  (* Preferential attachment should concentrate degree far more than the
     uniform model. *)
  let degrees model =
    let rng = Rng.create 3 in
    let es = Generator.edges ~rng ~model ~nodes:300 ~edges:3000 in
    let d = Array.make 300 0 in
    Array.iter
      (fun (a, b) ->
        d.(a) <- d.(a) + 1;
        d.(b) <- d.(b) + 1)
      es;
    Array.sort compare d;
    (* mass held by the top 10% *)
    let top = Array.sub d 270 30 in
    Array.fold_left ( + ) 0 top
  in
  check Alcotest.bool "preferential skews harder" true
    (degrees Generator.Preferential > degrees Generator.Uniform)

let generator_build () =
  let vm = mk_vm () in
  let rng = Rng.create 7 in
  let g =
    Generator.build vm ~rng ~model:Generator.Uniform ~nodes:50 ~edges:100
  in
  check Alcotest.int "nodes" 50 (Mgraph.n g);
  check Alcotest.bool "arcs inserted (minus self-loops)" true
    (Mgraph.edge_count g > 0 && Mgraph.edge_count g <= 200)

let web_model_has_communities () =
  (* Triangle density: the Web model must have far more triangles than the
     uniform model at equal size — that's what gives BK its cliques and CC
     its temporal locality. *)
  let triangles model =
    let rng = Rng.create 17 in
    let n = 200 in
    let es = Generator.edges ~rng ~model ~nodes:n ~edges:800 in
    let adj = Array.make_matrix n n false in
    Array.iter
      (fun (a, b) ->
        if a <> b then begin
          adj.(a).(b) <- true;
          adj.(b).(a) <- true
        end)
      es;
    let count = ref 0 in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        if adj.(a).(b) then
          for c = b + 1 to n - 1 do
            if adj.(a).(c) && adj.(b).(c) then incr count
          done
      done
    done;
    !count
  in
  let web = triangles Generator.Web and uniform = triangles Generator.Uniform in
  check Alcotest.bool
    (Printf.sprintf "web %d >> uniform %d triangles" web uniform)
    true
    (web > 2 * uniform)

let web_model_finds_big_cliques () =
  let vm = mk_vm () in
  let rng = Rng.create 23 in
  let g = Generator.build vm ~rng ~model:Generator.Web ~nodes:300 ~edges:6_000 in
  let r = Bron_kerbosch.run ~max_expansions:3_000 g in
  check Alcotest.bool
    (Printf.sprintf "max clique %d >= 6" r.Bron_kerbosch.max_size)
    true
    (r.Bron_kerbosch.max_size >= 6)

let dataset_table3 () =
  check Alcotest.int "six rows" 6 (List.length Dataset.table3);
  check Alcotest.int "uk CC nodes" 28_128 Dataset.uk_cc.Dataset.nodes;
  check Alcotest.int "uk CC edges" 900_002 Dataset.uk_cc.Dataset.edges;
  check Alcotest.int "enwiki MC nodes" 43_354 Dataset.enwiki_mc.Dataset.nodes;
  check Alcotest.int "enwiki complete edges" 128_835_798
    Dataset.enwiki_complete.Dataset.edges;
  check Alcotest.int "uk MC heap" 4_096 Dataset.uk_mc.Dataset.heap_mb

let dataset_scaling () =
  let s = Dataset.scaled Dataset.uk_cc ~factor:4 in
  check Alcotest.int "nodes scaled" (28_128 / 4) s.Dataset.nodes;
  check Alcotest.int "edges scaled" (900_002 / 4) s.Dataset.edges;
  Alcotest.check_raises "factor 0"
    (Invalid_argument "Dataset.scaled: factor must be >= 1") (fun () ->
      ignore (Dataset.scaled Dataset.uk_cc ~factor:0))

(* ------------------------------------------------------------------ *)
(* Connectivity                                                        *)
(* ------------------------------------------------------------------ *)

let cc_known_graph () =
  let vm = mk_vm () in
  (* Two components: a triangle and an edge; plus an isolated vertex. *)
  let g = graph_of_edges vm 6 [ (0, 1); (1, 2); (2, 0); (3, 4) ] in
  let components, largest = Connectivity.connected_components g in
  check Alcotest.int "components" 3 components;
  check Alcotest.int "largest" 3 largest

let cc_single_component () =
  let vm = mk_vm () in
  let g = graph_of_edges vm 10 (List.init 9 (fun i -> (i, i + 1))) in
  let components, largest = Connectivity.connected_components g in
  check Alcotest.int "one component" 1 components;
  check Alcotest.int "spans all" 10 largest

let articulation_points_known () =
  let vm = mk_vm () in
  (* Path 0-1-2: vertex 1 is a cut point.  Triangle 3-4-5 has none. *)
  let g = graph_of_edges vm 6 [ (0, 1); (1, 2); (3, 4); (4, 5); (5, 3) ] in
  let r = Connectivity.analyse ~passes:1 g in
  check Alcotest.int "one articulation point" 1 r.Connectivity.cut_points;
  check Alcotest.int "two components" 2 r.Connectivity.components

let articulation_bridge_chain () =
  let vm = mk_vm () in
  (* A chain of 5: the 3 interior vertices are cut points. *)
  let g = graph_of_edges vm 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  let r = Connectivity.analyse ~passes:1 g in
  check Alcotest.int "interior cut points" 3 r.Connectivity.cut_points

(* The int-specialised heap sort behind every neighbour set, with
   duplicates and the empty and one-element arrays. *)
let prop_set_of_array =
  QCheck.Test.make ~name:"bron-kerbosch: set_of_array = List.sort_uniq"
    ~count:200
    QCheck.(array_of_size Gen.(int_range 0 80) (int_range (-40) 40))
    (fun a ->
      let expect = List.sort_uniq Int.compare (Array.to_list a) in
      Array.to_list (Bron_kerbosch.set_of_array (Array.copy a)) = expect)

let prop_cc_matches_reference =
  QCheck.Test.make ~name:"connectivity: matches union-find reference" ~count:25
    QCheck.(pair (int_range 2 30) (small_list (pair (int_bound 29) (int_bound 29))))
    (fun (n, raw_edges) ->
      let edges =
        List.filter_map
          (fun (a, b) ->
            let a = a mod n and b = b mod n in
            if a <> b then Some (a, b) else None)
          raw_edges
      in
      (* Reference: union-find. *)
      let parent = Array.init n (fun i -> i) in
      let rec find i = if parent.(i) = i then i else find parent.(i) in
      List.iter (fun (a, b) -> parent.(find a) <- find b) edges;
      let expected =
        List.length
          (List.sort_uniq compare (List.init n find))
      in
      let vm = mk_vm () in
      let g = graph_of_edges vm n edges in
      let got, _ = Connectivity.connected_components g in
      got = expected)

(* ------------------------------------------------------------------ *)
(* Bron-Kerbosch                                                       *)
(* ------------------------------------------------------------------ *)

let bk_triangle () =
  let vm = mk_vm () in
  let g = graph_of_edges vm 3 [ (0, 1); (1, 2); (2, 0) ] in
  let r = Bron_kerbosch.run g in
  check Alcotest.int "one maximal clique" 1 r.Bron_kerbosch.cliques;
  check Alcotest.int "of size 3" 3 r.Bron_kerbosch.max_size

let bk_two_triangles_sharing_edge () =
  (* K4 minus an edge: cliques {0,1,2} and {1,2,3}. *)
  let vm = mk_vm () in
  let g = graph_of_edges vm 4 [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ] in
  let r = Bron_kerbosch.run g in
  check Alcotest.int "two maximal cliques" 2 r.Bron_kerbosch.cliques;
  check Alcotest.int "max size 3" 3 r.Bron_kerbosch.max_size

let bk_independent_set () =
  let vm = mk_vm () in
  let g = Mgraph.create vm ~n:4 in
  let r = Bron_kerbosch.run g in
  (* Each isolated vertex is a maximal clique of size 1. *)
  check Alcotest.int "four singletons" 4 r.Bron_kerbosch.cliques;
  check Alcotest.int "size 1" 1 r.Bron_kerbosch.max_size

let bk_complete_graph () =
  let vm = mk_vm () in
  let n = 6 in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  let g = graph_of_edges vm n !edges in
  let r = Bron_kerbosch.run g in
  check Alcotest.int "K6: one clique" 1 r.Bron_kerbosch.cliques;
  check Alcotest.int "of size 6" 6 r.Bron_kerbosch.max_size

let bk_expansion_cap () =
  let vm = mk_vm () in
  let rng = Rng.create 13 in
  let g =
    Generator.build vm ~rng ~model:Generator.Uniform ~nodes:60 ~edges:400
  in
  let r = Bron_kerbosch.run ~max_expansions:50 g in
  check Alcotest.bool "cap respected" true (r.Bron_kerbosch.expansions <= 50)

let bk_gc_safe () =
  (* Enumeration result must be identical under an aggressive HCSGC config
     (relocation must never corrupt adjacency). *)
  let run config =
    let vm = mk_vm ~config () in
    let rng = Rng.create 21 in
    let g =
      Generator.build vm ~rng ~model:Generator.Uniform ~nodes:40 ~edges:150
    in
    let r = Bron_kerbosch.run ~garbage_every:1 g in
    (r.Bron_kerbosch.cliques, r.Bron_kerbosch.max_size)
  in
  check
    (Alcotest.pair Alcotest.int Alcotest.int)
    "same cliques under cfg 18 as ZGC" (run Config.zgc)
    (run (Config.of_id 18))

let suite =
  [
    ( "graph.mgraph",
      [
        case "basic edges" `Quick mgraph_basic;
        case "node identity" `Quick mgraph_node_identity;
        case "multi-cell adjacency" `Quick mgraph_many_neighbors;
        case "survives GC (cfg 18)" `Slow mgraph_survives_gc;
      ] );
    ( "graph.generator",
      [
        case "edge counts/ranges" `Quick generator_counts;
        case "deterministic" `Quick generator_deterministic;
        case "power-law skew" `Quick generator_power_law_skew;
        case "build on heap" `Quick generator_build;
        case "web model has communities" `Quick web_model_has_communities;
        case "web model has big cliques" `Quick web_model_finds_big_cliques;
      ] );
    ( "graph.dataset",
      [
        case "Table 3 values" `Quick dataset_table3;
        case "scaling" `Quick dataset_scaling;
      ] );
    ( "graph.connectivity",
      [
        case "known components" `Quick cc_known_graph;
        case "single component" `Quick cc_single_component;
        case "articulation points" `Quick articulation_points_known;
        case "bridge chain" `Quick articulation_bridge_chain;
        QCheck_alcotest.to_alcotest prop_cc_matches_reference;
      ] );
    ( "graph.bron_kerbosch",
      [
        case "triangle" `Quick bk_triangle;
        case "two triangles" `Quick bk_two_triangles_sharing_edge;
        case "independent set" `Quick bk_independent_set;
        case "complete graph" `Quick bk_complete_graph;
        case "expansion cap" `Quick bk_expansion_cap;
        QCheck_alcotest.to_alcotest prop_set_of_array;
        case "GC-safe enumeration" `Slow bk_gc_safe;
      ] );
  ]
