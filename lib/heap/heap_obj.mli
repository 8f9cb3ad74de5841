(** The simulated object model: int handles into a per-heap arena.

    An object is a fixed-shape cell: a VM header, [nrefs] reference slots
    (each holding a coloured pointer, see {!Addr}) followed by [nwords]
    scalar payload words.  A handle ({!t}) names an arena slot and the
    slot's generation; the slot's cell, five packed ints, holds the
    object's metadata, and its reference and payload words live in the
    flat word storage of the page it sits on ({!Page}), at the object's
    own word offset.  Allocating, relocating and freeing an object
    therefore put nothing on the OCaml heap.

    The handle is the object's {e stable identity}: relocation updates the
    [addr] field in place, so OCaml-side handles survive moves exactly like
    registers fixed up by ZGC's stop-the-world root processing.  When the
    object's page is freed the slot is returned and its generation bumped,
    so a stale handle fails {!is_live} even after the slot is reused. *)

type t
(** A handle.  Two handles are equal ([==] or [=]) exactly when they name
    the same object. *)

val none : t
(** A handle that never names an object (what lookups return on a miss). *)

val slot : t -> int
(** The arena slot a handle names.  Slots are reused once their object is
    freed; handles are not, short of one slot's 30-bit generation wrapping
    after 2{^30} reuses. *)

val to_int : t -> int
(** The handle's raw encoding, for diagnostics. *)

type arena
(** The per-heap object arena: one 5-int cell per slot, holding the
    object's fields packed ([addr] and [id] a word each; [nrefs] and
    [size] 31 bits; [nwords], [page_id + 1] and [relocations] 32 bits;
    the generation and the [written] flag), grown 4096 cells at a time;
    plus the pools of page resources (object indexes and word storage)
    that {!Page.release} returns for reuse. *)

val create_arena : unit -> arena
(** An empty arena.  It allocates its first chunk of slots on the first
    {!alloc}. *)

val alloc :
  arena -> layout:Layout.t -> id:int -> addr:int -> nrefs:int -> nwords:int -> t
(** A fresh object in a free slot, not registered on any page
    ([page_id = -1]).  Its words are not initialised here:
    {!Page.new_object} does that.
    @raise Invalid_argument if the object's size is 2{^31} bytes or more
    (which also keeps [nrefs] and [nwords] inside their fields). *)

val of_slot : arena -> int -> t
(** The handle of whatever object slot [s] holds now: the slot with its
    current generation — how a page's object index, which stores slots,
    rebuilds a handle.  [s] must be below the arena's high-water mark. *)

val free : arena -> t -> unit
(** Return the object's slot: bumps its generation, so [t] (and every copy
    of it) stops being {!is_live}.  A no-op on a handle that is not live. *)

val free_slot : arena -> int -> unit
(** Free the object slot [s] holds, which must be live ({!free} without
    the handle's generation check). *)

val is_live : arena -> t -> bool
(** [t] names an object that has not been freed — one generation
    compare. *)

val live_addr : arena -> t -> int
(** The object's [addr] if the handle {!is_live}, else -1: the barrier's
    validity check and address read in one. *)

val live_count : arena -> int
(** Objects allocated and not yet freed. *)

(** {2 Fields}

    Reading a field of a handle that is not {!is_live} reads whatever its
    slot holds now; validate first where that matters.  A handle whose
    slot the arena never issued (such as {!none}) raises
    [Invalid_argument]. *)

val id : arena -> t -> int
(** Allocation-order identity, never reused. *)

val addr : arena -> t -> int
(** Current virtual byte address (uncoloured). *)

val size : arena -> t -> int
(** Total aligned size in bytes, header included. *)

val nrefs : arena -> t -> int
val nwords : arena -> t -> int

val relocations : arena -> t -> int
(** Times this object has been moved, modulo 2{^32}. *)

val page_id : arena -> t -> int
(** Id of the page whose object index currently registers this object, -1
    while a live object is unregistered — maintained by {!Page.add_object}
    / {!Page.remove_object}. *)

val payload_written : arena -> t -> bool
(** Whether the payload words have been materialised in page storage.
    Payload words read 0 until the first write; objects that are never
    written (pure garbage) never touch their page's storage. *)

val set_addr : arena -> t -> int -> unit
(** Move the [addr] field without touching storage or registration — for
    {!Page.move_object} and fault injection in tests. *)

val set_page_id : arena -> t -> int -> unit
(** @raise Invalid_argument if the id is below -1 or above 2{^32} - 2. *)

val incr_relocations : arena -> t -> unit
val set_payload_written : arena -> t -> unit

val ref_slot_addr : layout:Layout.t -> arena -> t -> int -> int
(** Byte address of reference slot [i] (for the cache simulator).
    @raise Invalid_argument if out of range. *)

val payload_addr : layout:Layout.t -> arena -> t -> int -> int
(** Byte address of payload word [i].
    @raise Invalid_argument if out of range. *)

(** {2 Page resources}

    Word storage and object-index buffers outlive the pages that use them:
    {!Page.create} takes them from these pools and {!Page.release} gives
    them back, so a steady state of page churn allocates nothing. *)

type words
(** Flat per-page word storage: word [i] mirrors the page's byte offset
    [8 i].  Not initialised on creation, and never scanned by the OCaml
    GC. *)

val no_words : words
(** Zero-length storage. *)

val words_length : words -> int
val word_get : words -> int -> int
val word_set : words -> int -> int -> unit
(** @raise Invalid_argument if the word is out of range. *)

val take_words : arena -> int -> words
(** Storage of exactly [n] words: a pooled one of that length, or a fresh
    one. *)

val give_words : arena -> words -> unit

val take_index : arena -> int -> Bytes.t
(** A buffer of exactly [n] native-endian 32-bit entries, every one -1
    (empty): a pooled one of that length, or a fresh one.  A page's object
    index ({!Page}). *)

val give_index : arena -> Bytes.t -> unit
(** Return an index buffer, which the caller has already reset to all
    -1. *)
