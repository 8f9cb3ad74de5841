(** Graphs stored on the managed heap.

    The representation mirrors what JGraphT materialises: one node object
    per vertex, one {e edge object} per edge (holding the two endpoint
    references; shared between both endpoints' adjacency sets), and chunked
    adjacency cells, all reached through barriered reference loads.  Traversals therefore produce exactly the
    irregular pointer-chasing access patterns over long-lived objects that
    HCSGC targets (§4.5): reading a neighbour's id touches the neighbour's
    node object, so a traversal's access order is what mutator-driven
    relocation captures.

    Node objects are kept reachable from a managed root table, so workloads
    may hold node handles freely. *)

module Vm = Hcsgc_runtime.Vm
module Heap_obj = Hcsgc_heap.Heap_obj

type t

val create : Vm.t -> n:int -> t
(** [create vm ~n] materialises [n] isolated vertices (ids [0..n-1]) and the
    root table.  Registers the root with the VM. *)

val vm : t -> Vm.t

val n : t -> int

val node : t -> int -> Heap_obj.t
(** The node handle for an id.  @raise Invalid_argument if out of range. *)

val node_id : t -> Heap_obj.t -> int
(** Read a node's id from its payload ({e touches} the node object — this is
    the locality-sensitive access of every traversal). *)

val add_arc : t -> int -> int -> unit
(** Directed edge: a fresh edge object appended to the source's adjacency. *)

val add_edge : t -> int -> int -> unit
(** Undirected edge: one shared edge object appended to both endpoints'
    adjacency lists (counts as 2 in {!edge_count}). *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Walk the adjacency cells of a vertex through the load barrier, reading
    each neighbour's id from the neighbour object itself. *)

val neighbors : t -> int -> int array
(** Neighbour ids in {!iter_neighbors} order, as a fresh array. *)

val degree : t -> int -> int
(** Number of out-neighbours (walks the chain). *)

val edge_count : t -> int
(** Total arcs inserted (an undirected edge counts 2). *)

val dispose : t -> unit
(** Unregister the root (lets the collector reclaim the graph). *)
