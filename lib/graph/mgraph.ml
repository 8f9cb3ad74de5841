module Vm = Hcsgc_runtime.Vm
module Heap_obj = Hcsgc_heap.Heap_obj

(* Like JGraphT, every edge is reified as its own object holding the two
   endpoint references; adjacency cells hold [cell_arity] edge refs plus a
   next pointer (one cache line each, like hash-set nodes).  Reading a
   neighbour therefore chases cell -> edge -> endpoint objects, and the
   per-edge objects give graphs the same memory footprint blow-up real
   JGraphT heaps have. *)
let cell_arity = 4

(* Edge object shape: refs = [source; target]; payload = [weight]. *)
let edge_src = 0
let edge_dst = 1

(* Node object shape: refs = [adjacency head]; payload = [id; scratch]. *)
let node_adj_slot = 0
let node_id_word = 0
let node_scratch_word = 1

let _ = node_scratch_word

type t = {
  vm : Vm.t;
  root : Heap_obj.t;  (* managed table of node refs; registered as root *)
  nodes : Heap_obj.t array;  (* OCaml-side handles, index = id *)
  mutable arcs : int;
  mutable scratch : int array;  (* [neighbors]' growable buffer *)
}

let create vm ~n =
  if n <= 0 then invalid_arg "Mgraph.create: need at least one vertex";
  let root = Vm.alloc vm ~nrefs:n ~nwords:0 in
  Vm.add_root vm root;
  let nodes =
    Array.init n (fun i ->
        let node = Vm.alloc vm ~nrefs:1 ~nwords:2 in
        Vm.store_word vm node node_id_word i;
        Vm.store_ref vm root i (Some node);
        node)
  in
  { vm; root; nodes; arcs = 0; scratch = Array.make 16 0 }

let vm t = t.vm

let n t = Array.length t.nodes

let node t i =
  if i < 0 || i >= Array.length t.nodes then
    invalid_arg "Mgraph.node: vertex out of range";
  t.nodes.(i)

let node_id t handle = Vm.load_word t.vm handle node_id_word

let edge_count t = t.arcs

(* Append an edge object to a vertex's adjacency: find the head cell with
   spare capacity or prepend a fresh one (O(1), like a linked bucket). *)
let append_to_adjacency t vertex edge =
  let vm = t.vm in
  let head = Vm.load_ref vm vertex node_adj_slot in
  let cell =
    match head with
    | Some cell when Vm.load_word vm cell 0 < cell_arity -> cell
    | _ ->
        let cell = Vm.alloc vm ~nrefs:(1 + cell_arity) ~nwords:1 in
        Vm.store_ref vm cell 0 head;
        Vm.store_word vm cell 0 0;
        Vm.store_ref vm vertex node_adj_slot (Some cell);
        cell
  in
  let used = Vm.load_word vm cell 0 in
  Vm.store_ref vm cell (1 + used) (Some edge);
  Vm.store_word vm cell 0 (used + 1)

let make_edge t a b =
  let vm = t.vm in
  let e = Vm.alloc vm ~nrefs:2 ~nwords:1 in
  Vm.store_ref vm e edge_src (Some (node t a));
  Vm.store_ref vm e edge_dst (Some (node t b));
  e

let add_arc t src dst =
  let e = make_edge t src dst in
  append_to_adjacency t (node t src) e;
  t.arcs <- t.arcs + 1

let add_edge t a b =
  (* One shared edge object, registered in both adjacency sets — the
     JGraphT undirected representation. *)
  let e = make_edge t a b in
  append_to_adjacency t (node t a) e;
  append_to_adjacency t (node t b) e;
  t.arcs <- t.arcs + 2

let iter_neighbors t v f =
  let vm = t.vm in
  let self = node t v in
  let other edge =
    (* Touch the edge object and pick the endpoint that is not [v]. *)
    match (Vm.load_ref vm edge edge_src, Vm.load_ref vm edge edge_dst) with
    | Some s, Some d -> if s == self then d else s
    | _ -> invalid_arg "Mgraph: malformed edge object"
  in
  let rec walk = function
    | None -> ()
    | Some cell ->
        let used = Vm.load_word vm cell 0 in
        for k = 1 to used do
          match Vm.load_ref vm cell k with
          | Some edge -> f (node_id t (other edge))
          | None -> ()
        done;
        walk (Vm.load_ref vm cell 0)
  in
  walk (Vm.load_ref vm self node_adj_slot)

let neighbors t v =
  let n = ref 0 in
  iter_neighbors t v (fun id ->
      if !n = Array.length t.scratch then begin
        let grown = Array.make (2 * !n) 0 in
        Array.blit t.scratch 0 grown 0 !n;
        t.scratch <- grown
      end;
      t.scratch.(!n) <- id;
      incr n);
  Array.sub t.scratch 0 !n

let degree t v =
  let c = ref 0 in
  iter_neighbors t v (fun _ -> incr c);
  !c

let dispose t = Vm.remove_root t.vm t.root
