(** Differential mark-sweep oracle.

    An independent, stop-the-world reachability computation over the managed
    heap, written against the collector's {e read-only} accessors and sharing
    no code with the concurrent marking path.  Where {!Invariants} checks
    local consistency (colours, accounting, forwarding), the oracle answers
    the global question: {e did concurrent marking find everything it had
    to?}

    The comparison is asymmetric, mirroring what a concurrent collector
    actually guarantees:

    - every object that is reachable at Mark End {e and existed when marking
      started} (its id is below {!Collector.mark_watermark}) must be in the
      livemap — anything else is a lost object, reported in {!diff.missed};
    - the livemap may cover {e more} than the reachable set: objects that
      died during the cycle stay marked until the next cycle ({e floating
      garbage}, counted in {!diff.floating} but never an error);
    - objects allocated during the cycle are exempt — they are kept alive by
      roots and store barriers, not the livemap.

    Only meaningful at the {!Collector.Mark_done} edge, where the livemap is
    complete and no page is mid-evacuation. *)

module Collector = Hcsgc_core.Collector
module Heap_obj = Hcsgc_heap.Heap_obj

type resolve_error = {
  dead_chain : bool;
      (** The chain ended at a retired destination page with no entry for
          it — the shape a forwarding entry legally takes when its object
          died {e after} relocation and the destination page was itself
          relocated and freed.  Harmless when auditing whole tables
          (nothing reachable routes through a dead object's chain), but
          still corruption when the pointer being chased must be alive. *)
  msg : string;
}

val iter_refs :
  Hcsgc_heap.Heap.t -> Heap_obj.t -> (int -> Hcsgc_heap.Addr.t -> unit) -> unit
(** [iter_refs heap obj f] applies [f slot ptr] to every reference slot of
    [obj], read from its page's word storage; nothing when the handle is
    freed or its page unmapped (the reachable walks report those). *)

val resolve_ro : Collector.t -> int -> (Heap_obj.t, resolve_error) result
(** [resolve_ro c addr] follows forwarding chains from the uncoloured
    address [addr] to the object currently living there — the barrier slow
    path's remapping logic, minus every side effect (no relocation, no
    marking, no healing, no simulated cycles).  [Error] describes a dangling
    pointer: an unmapped address, a missing forwarding entry, or a chain
    deeper than any the collector can produce. *)

val reachable : Collector.t -> (int, Heap_obj.t) Hashtbl.t * string list
(** [reachable c] walks the object graph from {!Collector.roots_list}
    through {!resolve_ro}, returning every reachable object keyed by id,
    plus one message per slot that failed to resolve.  Read-only. *)

type diff = {
  reachable_count : int;  (** objects reachable from the roots *)
  marked_count : int;  (** livemap population, summed over active pages *)
  floating : int;
      (** marked but unreachable — garbage that died during the cycle and
          will be reclaimed next cycle; legal, reported for visibility *)
  missed : string list;
      (** reachable, pre-watermark, but unmarked — each entry is a lost
          object and a collector bug *)
  errors : string list;  (** slots that failed to resolve during the walk *)
}

val diff : Collector.t -> diff
(** Compare oracle reachability against the collector's livemap.  Call at
    {!Collector.Mark_done}; at any other edge the livemap is legitimately
    stale and the comparison is meaningless. *)

val check : Collector.t -> (diff, string list) result
(** [Ok] when {!diff} found no missed objects and no resolution errors. *)
