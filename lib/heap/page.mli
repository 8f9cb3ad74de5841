(** Heap pages: the unit of allocation, liveness accounting, evacuation
    selection and reclamation (§2.1).

    A page serves bump-pointer allocation until it cannot satisfy a request
    (it is then {e retired} but stays [Active]).  During marking, per-page
    liveness (live bytes / live objects) and — with HOTNESS on — hot bytes
    are accumulated.  Pages selected for evacuation move to [In_ec]; once
    every live object has been copied out the page is [Freed] and its address
    range recycled, while its forwarding table stays reachable until the next
    mark phase has remapped all stale pointers. *)

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

type obj_index
(** The page's byte offset → object index: open addressing over two flat
    arrays, so a lookup allocates nothing and runs no polymorphic hash or
    compare.  Read it through {!object_at}, {!find_object} and
    {!iter_objects}; change it only through {!add_object} and
    {!remove_object}. *)

type t = {
  id : int;
  cls : Layout.size_class;
  start : int;  (** first byte address (granule-aligned) *)
  size : int;  (** page size in bytes *)
  birth_cycle : int;  (** GC cycle sequence number at allocation *)
  mutable top : int;  (** bump offset; next free byte within the page *)
  mutable state : state;
  objects : obj_index;
      (** byte offset → object of every object registered on the page *)
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
  mutable memo_off : int;
      (** last-find memo offset for {!find_object_exn}; -1 = empty.
          Invalidated by {!add_object}/{!remove_object}. *)
  mutable memo_obj : Heap_obj.t;  (** object last found at [memo_off] *)
}

val create :
  layout:Layout.t ->
  id:int ->
  cls:Layout.size_class ->
  start:int ->
  size:int ->
  birth_cycle:int ->
  t

val bump_alloc : t -> int -> int option
(** [bump_alloc t bytes] reserves [bytes] (already aligned) and returns the
    byte offset, or [None] if the page is full. *)

val bump_try : t -> int -> int
(** {!bump_alloc} without the option box: the byte offset, or -1 if the
    page is full.  The collector's bump-target path uses this so a
    steady-state allocation touches no host heap. *)

val no_obj : Heap_obj.t
(** The "no object" sentinel {!object_at} returns on a miss (id and addr
    -1).  Compare with [==]. *)

val add_object : t -> Heap_obj.t -> unit
(** Register an object at the offset of its [addr], which must lie within
    this page, replacing any object registered there. *)

val remove_object : t -> Heap_obj.t -> unit
(** Unregister the object at the offset of its [addr] (a no-op if none
    is).  The slot keeps its key with the value blanked, so probe chains
    stay intact; re-adding at that offset reuses the slot. *)

val object_at : t -> offset:int -> Heap_obj.t
(** The object registered at byte [offset], or {!no_obj}.  Allocates
    nothing; any offset (negative included) is accepted. *)

val find_object : t -> offset:int -> Heap_obj.t option
(** {!object_at} as an option. *)

val find_object_exn : t -> offset:int -> Heap_obj.t
(** {!object_at} for the barrier hot path: repeated lookups of the same
    offset hit a last-find memo instead of probing the index.
    @raise Not_found if no object starts at [offset]. *)

val iter_objects : t -> (int -> Heap_obj.t -> unit) -> unit
(** [iter_objects t f] applies [f offset obj] to every registered object,
    in index slot order (deterministic, not sorted).  [offset] is the key
    the object was registered under, not recomputed from [obj.addr], so
    verifiers can check that the two still agree. *)

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

val tier_to_string : tier_loc -> string

val pp : Format.formatter -> t -> unit
