(** The heap: page allocation and reclamation over a granule-based virtual
    address space, plus object allocation within pages.

    Pages are allocated from per-class free lists (recycled address ranges)
    or by extending the address space.  Reclaiming a page returns its
    granules to the free list immediately — stale pointers into recycled
    ranges are safe because they carry a non-good colour and are resolved
    through the collector's forwarding-table index, exactly as in ZGC's
    multi-mapped heap. *)

type t

val create : ?layout:Layout.t -> max_bytes:int -> unit -> t
(** [create ~max_bytes ()] builds an empty heap capped at [max_bytes] of
    committed page memory.  Default layout is {!Layout.paper}. *)

val layout : t -> Layout.t

val objects : t -> Heap_obj.arena
(** The heap's object arena: every handle the heap issues indexes it. *)

val max_bytes : t -> int

val used_bytes : t -> int
(** Committed page bytes (the paper's "heap usage"). *)

val used_ratio : t -> float

val address_space_bytes : t -> int
(** Total virtual address space ever claimed (high-water granule mark).
    Stays bounded when freed ranges are recycled after forwarding-table
    retirement — the property that replaces ZGC's multi-mapping. *)

val alloc_page :
  ?force:bool ->
  t ->
  cls:Layout.size_class ->
  bytes:int ->
  birth_cycle:int ->
  Page.t option
(** Allocate (or recycle) a page; [None] if it would exceed [max_bytes].
    [bytes] is only consulted for [Large].  [force] ignores the cap — used
    for relocation target pages, which ZGC serves from a reserved headroom so
    compaction can always make progress. *)

val free_page : t -> Page.t -> unit
(** Release the page's committed memory ([used_bytes] drops) but do {e not}
    recycle its address range yet: the range stays mapped to the freed page,
    so stale coloured pointers into it keep resolving through the page's
    forwarding table until the next mark phase has remapped them (ZGC gets
    the same effect from heap multi-mapping).  The caller unmaps and
    recycles the range later with {!recycle_range}.  The page's state
    becomes [Freed]; its objects are freed and its object index and word
    storage go back to the arena's pools ({!Page.release}), so a stale
    handle to one of its objects fails {!Heap_obj.is_live}.  Once more than
    half of the page vector is freed pages it is compacted in place (order
    preserved).
    @raise Invalid_argument if the page is already freed. *)

val recycle_range : t -> Page.t -> unit
(** Unmap a freed page's range and return its granules to the allocation
    free lists.  Until this call the range stays mapped to the freed page.
    Call only once per page, after its forwarding table has been
    retired. *)

val new_object :
  t -> Page.t -> addr:int -> nrefs:int -> nwords:int -> Heap_obj.t
(** {!Page.new_object} with the next object id, at an address already
    bump-reserved on the page. *)

val alloc_object_in : t -> Page.t -> nrefs:int -> nwords:int -> Heap_obj.t option
(** Bump-allocate an object in the given (small or medium) page; [None] if it
    does not fit. *)

val alloc_large_object : t -> nrefs:int -> nwords:int -> birth_cycle:int -> Heap_obj.t option
(** Allocate a large object on its own page ([None] if out of memory). *)

val page_of_addr : t -> int -> Page.t option
val obj_at : t -> int -> Heap_obj.t option
(** The object whose start address is exactly the given address, on the
    currently mapped page. *)

(** {2 Object words}

    {!Page.get_ref} and friends on the page the object sits on — for
    verifiers, tests and fault injection; the collector reads words through
    the page it already holds.
    @raise Invalid_argument if the handle is freed or its page unmapped. *)

val get_ref : t -> Heap_obj.t -> int -> Addr.t
val set_ref : t -> Heap_obj.t -> int -> Addr.t -> unit
val get_word : t -> Heap_obj.t -> int -> int
val set_word : t -> Heap_obj.t -> int -> int -> unit

val iter_pages : t -> (Page.t -> unit) -> unit
(** Iterate all non-freed pages. *)

val page_count : t -> Layout.size_class -> int
(** Number of non-freed pages of a class.  O(1) — maintained as a running
    counter at page allocation/free. *)

val pages_held : t -> int
(** Length of the internal page vector: the non-freed pages plus the
    freed ones not yet compacted away. *)

val tombstones : t -> int
(** Freed pages still in the page vector; at most half of
    {!pages_held}. *)

(** {2 Hot-byte accounting}

    The heap keeps a running total of [Page.hot_bytes] over non-freed
    pages, so telemetry sampling never folds over the page vector.  For the
    total to stay exact, hot flagging and mark-state resets of heap pages
    must go through these wrappers (the collector's only two call sites
    do); reclamation is accounted inside {!free_page}. *)

val hot_bytes : t -> int
(** Sum of {!Page.hot_bytes} over all non-freed pages, in O(1). *)

val flag_hot : t -> Page.t -> Heap_obj.t -> bool
(** {!Page.flag_hot} plus running-total maintenance. *)

val reset_mark_state : t -> Page.t -> unit
(** {!Page.reset_mark_state} plus running-total maintenance. *)

(** {2 Far-tier accounting}

    Like hot bytes, the heap keeps an O(1) running total of the page bytes
    resident in the far tier.  Tier moves must go through these wrappers;
    {!free_page} resets a freed page to [Dram] and deducts it from the
    total (the collector separately drops its {!Hcsgc_memsim.Tier}
    residency before freeing). *)

val far_bytes : t -> int
(** Sum of {!Page.t.size} over non-freed pages with [tier = Far], O(1). *)

val set_tier_far : t -> Page.t -> unit
(** Move the page to the far tier (no-op if already there).
    @raise Invalid_argument if the page is freed. *)

val set_tier_dram : t -> Page.t -> unit
(** Move the page back to DRAM (no-op if already there). *)

val obj_ids_issued : t -> int
(** Number of object identities issued so far — equivalently, the id the
    next allocation will get.  Read-only; lets the verifier
    ({!Hcsgc_verify}) tell objects allocated before a cycle's STW1 (which
    marking must cover) from objects born during the cycle (which it need
    not). *)
