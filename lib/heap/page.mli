(** Heap pages: the unit of allocation, liveness accounting, evacuation
    selection and reclamation (§2.1).

    A page serves bump-pointer allocation until it cannot satisfy a request
    (it is then {e retired} but stays [Active]).  During marking, per-page
    liveness (live bytes / live objects) and — with HOTNESS on — hot bytes
    are accumulated.  Pages selected for evacuation move to [In_ec]; once
    every live object has been copied out the page is [Freed] and its address
    range recycled, while its forwarding table stays reachable until the next
    mark phase has remapped all stale pointers.

    As in ZGC, address arithmetic alone finds an object: the page's object
    index is direct-mapped (one entry per 16 bytes, the minimum object
    size, on a small page), so a lookup is a shift, one load and a
    generation read. *)

type state =
  | Active  (** holds objects; may be selected for evacuation *)
  | In_ec  (** selected for evacuation; objects being copied out *)
  | Freed  (** address range recycled; only the forwarding table matters *)

(** Which memory level the page's address range currently lives in.  Pages
    are born [Dram]; the collector may demote a cold page to [Far] at sweep
    and promotes it back on access.  Mutate only through [Heap.set_tier_far]
    / [Heap.set_tier_dram] so the heap's O(1) per-tier byte totals stay in
    sync. *)
type tier_loc = Dram | Far

type t = {
  id : int;
  cls : Layout.size_class;
  start : int;  (** first byte address (granule-aligned) *)
  size : int;  (** page size in bytes *)
  birth_cycle : int;  (** GC cycle sequence number at allocation *)
  arena : Heap_obj.arena;  (** the heap's object arena *)
  layout : Layout.t;
  mutable top : int;  (** bump offset; next free byte within the page *)
  mutable state : state;
  entry_shift : int;  (** log2 of the bytes one index entry spans *)
  mutable entries : int;  (** object-index entries; 0 once released *)
  mutable extent : int;  (** one past the highest entry ever written *)
  mutable index : Bytes.t;
      (** the object index: entry [offset lsr entry_shift] (an int32) names
          the object registered in its span, or is -1 — on a small page
          [slot lsl 1 lor ((offset lsr 3) land 1)], elsewhere the slot,
          with the registered word offsets after the [entries] slot
          entries.  Change it only through {!add_object},
          {!remove_object} and {!release}. *)
  mutable words : Heap_obj.words;
      (** reference and payload words of the page's objects: word [i]
          mirrors byte offset [8 i].  Empty until the page's first write
          (an object with references, or a payload write), taken from the
          arena's pool then. *)
  livemap : Hcsgc_util.Bitmap.t;  (** bit per word-offset of object starts *)
  mutable hot_cur : Hcsgc_util.Bitmap.t;  (** hotness, current epoch *)
  mutable hot_prev : Hcsgc_util.Bitmap.t;  (** snapshot for lazy relocation *)
  mutable live_bytes : int;
  mutable live_objects : int;
  mutable hot_bytes : int;
  mutable prev_hot_bytes : int;
      (** [hot_bytes] of the previous mark epoch, snapshotted by
          {!reset_mark_state} — the demotion policy's "was the page cold
          last cycle too?" signal when [cold_confidence < 1]. *)
  mutable is_alloc_target : bool;
      (** currently a bump-allocation / relocation target; excluded from EC *)
  mutable tier : tier_loc;  (** memory level of the page's address range *)
  fwd : Fwd_table.t;
}

val create :
  layout:Layout.t ->
  arena:Heap_obj.arena ->
  id:int ->
  cls:Layout.size_class ->
  start:int ->
  size:int ->
  birth_cycle:int ->
  t
(** A fresh page whose object index comes from the arena's pool
    ({!Heap_obj.take_index}); its word storage comes from the pool
    ({!Heap_obj.take_words}) on its first write. *)

val release : t -> unit
(** Free every object still registered on the page
    ({!Heap_obj.free_slot}), in address order, and return the page's object index and word storage to
    the arena's pools.
    The page keeps its bitmaps and forwarding table (stale pointers still
    resolve through it) but registers nothing afterwards; adding an object
    to it raises [Invalid_argument].  Called by [Heap.free_page]. *)

val bump_alloc : t -> int -> int option
(** [bump_alloc t bytes] reserves [bytes] (already aligned) and returns the
    byte offset, or [None] if the page is full. *)

val bump_try : t -> int -> int
(** {!bump_alloc} without the option box: the byte offset, or -1 if the
    page is full.  The collector's bump-target path uses this so a
    steady-state allocation touches no host heap. *)

val new_object :
  t -> id:int -> addr:int -> nrefs:int -> nwords:int -> Heap_obj.t
(** Allocate an object at [addr] (already bump-reserved on this page) in
    the arena, null its reference slots and register it. *)

val add_object : t -> Heap_obj.t -> unit
(** Register an object at the offset of its [addr], replacing any object
    registered at that same offset.
    @raise Invalid_argument if the page is released, or the object's slot
    is 2{^30} or more, or the offset is off the page or not word-aligned,
    or its index entry is held by an object registered at another offset
    (two objects starting in one entry's span: 16 bytes on a small
    page). *)

val remove_object : t -> Heap_obj.t -> unit
(** Unregister the object at the offset of its [addr] (a no-op if none
    is). *)

val move_object : src:t -> dst:t -> Heap_obj.t -> new_addr:int -> unit
(** Relocate an object registered on [src] to [new_addr] on [dst]: copy
    its words, re-register it and count the relocation.  The handle stays
    valid. *)

val object_at : t -> offset:int -> Heap_obj.t
(** The object registered at byte [offset], or {!Heap_obj.none}.
    Allocates nothing; any offset (negative included) is accepted. *)

val find_object : t -> offset:int -> Heap_obj.t option
(** {!object_at} as an option. *)

val iter_objects : t -> (int -> Heap_obj.t -> unit) -> unit
(** [iter_objects t f] applies [f offset obj] to every registered object,
    in ascending offset order.  [offset] is the one the object was
    registered at, not recomputed from the object's [addr], so verifiers
    can check that the two still agree. *)

val object_count : t -> int
(** Number of registered objects (an index walk). *)

(** {2 Object words}

    The fields of an object registered on this page, kept in the page's
    word storage at the object's own word offset.
    @raise Invalid_argument if the slot or word is out of the object's
    range, or the address is off the page. *)

val read : t -> int -> int
(** [read t addr]: the storage word at byte address [addr] (a reference
    slot address from {!Heap_obj.ref_slot_addr}) — the barrier's load
    path, which computes that address for the cache simulator anyway. *)

val write : t -> int -> int -> unit

val get_ref : t -> Heap_obj.t -> int -> Addr.t
val set_ref : t -> Heap_obj.t -> int -> Addr.t -> unit

val get_word : t -> Heap_obj.t -> int -> int
(** 0 until the payload is first written. *)

val set_word : t -> Heap_obj.t -> int -> int -> unit

val get_word_at : t -> Heap_obj.t -> int -> int
(** [get_word_at t obj addr]: {!get_word} for the payload word at byte
    address [addr], as {!Heap_obj.payload_addr} computed it. *)

val set_word_at : t -> Heap_obj.t -> int -> int -> unit

val offset_of_addr : t -> int -> int
(** Byte offset of an address within the page.
    @raise Invalid_argument if the address is outside the page. *)

val contains : t -> int -> bool

val free_bytes : t -> int

val used_bytes : t -> int
(** Bytes consumed by the bump pointer (live + garbage). *)

(** {2 Liveness (filled during M/R)} *)

val reset_mark_state : t -> unit
(** Clear livemap, zero live counters, swap the hotness epoch: [hot_cur]
    becomes [hot_prev] (kept for COLDPAGE decisions under LAZYRELOCATE) and a
    cleared map becomes current; [hot_bytes] is snapshotted into
    [prev_hot_bytes] before zeroing.  Called at STW1 for every page. *)

val mark_live : t -> Heap_obj.t -> bool
(** Set the livemap bit for the object; accumulate live bytes/objects on
    first marking.  Returns [true] if this call marked it (it was unmarked). *)

val is_marked_live : t -> Heap_obj.t -> bool

val iter_live : t -> (Heap_obj.t -> unit) -> unit
(** Iterate objects marked live, in ascending address order (the order GC
    threads evacuate a page). *)

val live_ratio : t -> float
(** live bytes / page size. *)

(** {2 Hotness (§3.1.2)} *)

val flag_hot : t -> Heap_obj.t -> bool
(** Set the hotmap bit (current epoch); accumulate hot bytes on first
    flagging.  Returns [true] if the object was {e newly} flagged — the
    caller uses this to charge the CAS cost once, as in the paper. *)

val is_hot : t -> Heap_obj.t -> bool
(** Current-epoch hotness. *)

val was_hot : t -> Heap_obj.t -> bool
(** Previous-epoch hotness (used by relocation under LAZYRELOCATE, where the
    copy happens after the epoch flip). *)

val cold_bytes : t -> int
(** live bytes − hot bytes. *)

val weighted_live_bytes : t -> cold_confidence:float -> int
(** The paper's WLB (§3.1.3): [cold] if there are no hot bytes, otherwise
    [hot + cold × (1 − cold_confidence)]. *)
