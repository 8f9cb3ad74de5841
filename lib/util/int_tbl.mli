(** Open-addressed linear-probing int → int hash table.

    The GC-phase replacement for [(int, int) Hashtbl.t]: flat parallel
    int arrays (no buckets, no boxing), power-of-two capacity, Fibonacci
    hashing on the {e top} bits of [key * fib] (so keys that differ only
    in high bits, such as word-aligned byte offsets, still spread over
    every slot), and a
    {!clear} that keeps the backing store — so a table reused across GC
    cycles allocates nothing once it has reached its high-water size.
    Keys must be non-negative (the empty-slot sentinel is -1); there is
    no removal, which keeps probe chains tombstone-free (the collector's
    forwarding tables only add and look up). *)

type t

val create : ?capacity:int -> unit -> t
(** An empty table; [capacity] (default 16) is rounded up to a power of
    two. *)

val length : t -> int
(** Number of bindings. *)

val capacity : t -> int
(** Current slot count (a power of two); grows when the load factor
    passes 3/4 and never shrinks. *)

val set : t -> key:int -> value:int -> unit
(** Bind [key] to [value], replacing any previous binding.
    @raise Invalid_argument on a negative key. *)

val add_if_absent : t -> key:int -> value:int -> int
(** Bind [key] to [value] only if unbound, returning -1; if already
    bound, return the existing value unchanged.  The flat-table
    equivalent of {!Hcsgc_heap.Fwd_table.claim}'s first-claimant-wins
    CAS, without an intermediate variant allocation (values are
    addresses, hence non-negative — -1 is unambiguous).
    @raise Invalid_argument on a negative key. *)

val get : t -> key:int -> default:int -> int
(** The value bound to [key], or [default] if unbound (negative keys are
    unbound by definition).  Allocation-free. *)

val mem : t -> key:int -> bool

val clear : t -> unit
(** Remove every binding, retaining the backing arrays (O(capacity)). *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] applies [f key value] to every binding, in slot order
    (deterministic for a given insertion history, but not sorted). *)

val mean_probe_length : t -> float
(** Diagnostic: the mean number of slots a lookup of a present key
    examines (1.0 = every key in its home slot; 0.0 when empty).
    Read-only, O(capacity); the hash-quality regression test uses it. *)
