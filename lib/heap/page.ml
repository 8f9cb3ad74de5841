module Bitmap = Hcsgc_util.Bitmap

type state = Active | In_ec | Freed

type tier_loc = Dram | Far

type t = {
  id : int;
  cls : Layout.size_class;
  start : int;
  size : int;
  birth_cycle : int;
  arena : Heap_obj.arena;
  layout : Layout.t;
  mutable top : int;
  mutable state : state;
  entry_shift : int;
  mutable entries : int;
  mutable extent : int;
  mutable index : Bytes.t;
  mutable words : Heap_obj.words;
  livemap : Bitmap.t;
  mutable hot_cur : Bitmap.t;
  mutable hot_prev : Bitmap.t;
  mutable live_bytes : int;
  mutable live_objects : int;
  mutable hot_bytes : int;
  mutable prev_hot_bytes : int;
  mutable is_alloc_target : bool;
  mutable tier : tier_loc;
  fwd : Fwd_table.t;
}

let word_bits layout size = size / layout.Layout.word_bytes

(* ---- object index ------------------------------------------------

   Byte offset -> object, direct-mapped: entry [offset lsr entry_shift]
   of [index] (a native-endian int32) names the object registered in that
   span, or is -1.  A small page has one entry per 16 bytes, the minimum
   object size ([header_bytes]), so no two objects start in one span; its
   entry holds [slot lsl 1 lor word parity], and the entry's position and
   parity bit give back the offset it was registered at.  A medium page
   has one entry per [small_obj_max] bytes (its objects are larger than
   that) and a large page a single entry; there an entry holds the slot,
   and the word offset it was registered at is kept after the [entries]
   slot entries.  Either way the registered offset is stored, not
   recomputed from the object's [addr], so a verifier can compare the
   two.  A lookup is a shift, one load and a read of the slot's
   generation: no hashing, no probing, no growth.  Entries at [extent]
   and above were never written.  [release] resets the written entries
   to -1 and pools the buffer by exact length. *)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let small_shift = 4

(* An entry holds [slot lsl 1] on a small page, and [slot] elsewhere:
   slots below 2{^30} keep both under the int32's sign bit. *)
let max_slot_bits = 30

let entry_shift_of layout (cls : Layout.size_class) =
  match cls with
  | Small -> small_shift
  | Medium -> log2 layout.Layout.small_obj_max
  | Large -> Sys.int_size - 1

(* The storage of a page no object has written to yet, and of a released
   page. *)
let no_words = Heap_obj.no_words

(* Unchecked reads: every caller keeps the entries it reads below the
   ones the buffer holds (a released page holds none).  The bounds check
   of [Bytes.get_int32_ne] doubled the cost of [release]'s walk. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let[@inline] entry ix i = Int32.to_int (get32u ix (i lsl 2))
let[@inline] set_entry ix i v = Bytes.set_int32_ne ix (i lsl 2) (Int32.of_int v)

(* The byte offset entry [i], holding [e >= 0], was registered at, and
   the slot it names. *)
let[@inline] entry_offset t i e =
  if t.entry_shift = small_shift then (i lsl small_shift) lor ((e land 1) lsl 3)
  else entry t.index (t.entries + i) lsl 3

let[@inline] entry_slot t e = if t.entry_shift = small_shift then e lsr 1 else e

let create ~layout ~arena ~id ~cls ~start ~size ~birth_cycle =
  let bits = word_bits layout size in
  let entry_shift = entry_shift_of layout cls in
  let entries = if size = 0 then 0 else ((size - 1) lsr entry_shift) + 1 in
  {
    id;
    cls;
    start;
    size;
    birth_cycle;
    arena;
    layout;
    top = 0;
    state = Active;
    entry_shift;
    entries;
    extent = 0;
    index =
      Heap_obj.take_index arena
        (if entry_shift = small_shift then entries else 2 * entries);
    words = no_words;
    livemap = Bitmap.create bits;
    hot_cur = Bitmap.create bits;
    hot_prev = Bitmap.create bits;
    live_bytes = 0;
    live_objects = 0;
    hot_bytes = 0;
    prev_hot_bytes = 0;
    is_alloc_target = false;
    tier = Dram;
    fwd = Fwd_table.create ();
  }

(* Free the slots of entries [i, n) and reset them, in address order, so
   slots return to the arena in allocation order.  Most entries of a small
   page are empty (one per 16 bytes), so empty ones are skipped four to a
   test.  A medium or large page's registered offsets are reset with
   their slots, here and in [remove_object], so the pool holds only all
   -1 buffers: at a 4 KiB small page a medium page's buffer has a small
   page's length, and a small page would read a stale offset as a slot. *)
let rec free_entries t ix i n =
  if
    i + 4 <= n
    && Int64.equal
         (Int64.logand (get64u ix (i lsl 2)) (get64u ix ((i + 2) lsl 2)))
         (-1L)
  then free_entries t ix (i + 4) n
  else if i < n then begin
    let e = entry ix i in
    if e >= 0 then begin
      Heap_obj.free_slot t.arena (entry_slot t e);
      set_entry ix i (-1);
      if t.entry_shift <> small_shift then set_entry ix (t.entries + i) (-1)
    end;
    free_entries t ix (i + 1) n
  end

let release t =
  if t.entries > 0 then begin
    let ix = t.index in
    free_entries t ix 0 t.extent;
    Heap_obj.give_index t.arena ix;
    Heap_obj.give_words t.arena t.words;
    t.index <- Bytes.empty;
    t.entries <- 0;
    t.extent <- 0;
    t.words <- no_words
  end

let bump_alloc t bytes =
  if t.top + bytes > t.size then None
  else begin
    let offset = t.top in
    t.top <- t.top + bytes;
    Some offset
  end

(* [bump_alloc] without the option box: -1 means "does not fit".  The
   collector's bump-target path uses this so a steady-state allocation
   touches no host heap. *)
let bump_try t bytes =
  if t.top + bytes > t.size then -1
  else begin
    let offset = t.top in
    t.top <- t.top + bytes;
    offset
  end

let offset_of_addr t addr =
  if addr < t.start || addr >= t.start + t.size then
    invalid_arg "Page.offset_of_addr: address outside page";
  addr - t.start

let contains t addr = addr >= t.start && addr < t.start + t.size

let add_object t obj =
  if t.entries = 0 then invalid_arg "Page.add_object: page is released";
  let s = Heap_obj.slot obj in
  if s lsr max_slot_bits <> 0 then
    invalid_arg "Page.add_object: slot does not fit 30 bits";
  let offset = offset_of_addr t (Heap_obj.addr t.arena obj) in
  if offset land 7 <> 0 then
    invalid_arg "Page.add_object: offset is not word-aligned";
  let i = offset lsr t.entry_shift in
  let e = entry t.index i in
  if e >= 0 && entry_offset t i e <> offset then
    invalid_arg "Page.add_object: entry held by an object at another offset";
  Heap_obj.set_page_id t.arena obj t.id;
  if t.entry_shift = small_shift then
    set_entry t.index i ((s lsl 1) lor ((offset lsr 3) land 1))
  else begin
    set_entry t.index i s;
    set_entry t.index (t.entries + i) (offset lsr 3)
  end;
  if i >= t.extent then t.extent <- i + 1

let remove_object t obj =
  Heap_obj.set_page_id t.arena obj (-1);
  let offset = offset_of_addr t (Heap_obj.addr t.arena obj) in
  let i = offset lsr t.entry_shift in
  if i < t.entries then begin
    let e = entry t.index i in
    if e >= 0 && entry_offset t i e = offset then begin
      set_entry t.index i (-1);
      if t.entry_shift <> small_shift then set_entry t.index (t.entries + i) (-1)
    end
  end

(* A negative offset shifts to a huge entry number, so the one compare
   rejects it too. *)
let object_at t ~offset =
  let i = offset lsr t.entry_shift in
  if i >= t.entries then Heap_obj.none
  else
    let e = entry t.index i in
    if e < 0 || entry_offset t i e <> offset then Heap_obj.none
    else Heap_obj.of_slot t.arena (entry_slot t e)

let find_object t ~offset =
  let obj = object_at t ~offset in
  if obj == Heap_obj.none then None else Some obj

let iter_objects t f =
  for i = 0 to t.extent - 1 do
    let e = entry t.index i in
    if e >= 0 then
      f (entry_offset t i e) (Heap_obj.of_slot t.arena (entry_slot t e))
  done

let object_count t =
  let n = ref 0 in
  iter_objects t (fun _ _ -> incr n);
  !n

(* ---- object words -------------------------------------------------

   An object's words sit in [t.words] at its own word offset: reference
   slot [i] at [(addr - start) / 8 + header words + i], its payload right
   after, so the word of byte address [a] is [(a - start) / 8].  Payload
   words are materialised on first write, so an object that is never
   written never touches the storage; an object with words to keep
   (references, or a written payload) sits only on pages that have
   storage. *)

let[@inline] header_words t = t.layout.Layout.header_bytes / 8

let[@inline] refs_base t obj =
  ((Heap_obj.addr t.arena obj - t.start) lsr 3) + header_words t

(* The storage word mirroring byte address [addr]; one unsigned compare
   rejects addresses off the page (and every address of a released
   page, whose storage is empty). *)
let[@inline] word_index t addr =
  let i = (addr - t.start) lsr 3 in
  if i >= Heap_obj.words_length t.words then
    invalid_arg "Page: address outside the page's storage";
  i

let[@inline] read t addr =
  Heap_obj.word_get t.words (word_index t addr)

let[@inline] write t addr v =
  Heap_obj.word_set t.words (word_index t addr) v

let get_ref t obj i =
  read t (Heap_obj.ref_slot_addr ~layout:t.layout t.arena obj i)

let set_ref t obj i p =
  write t (Heap_obj.ref_slot_addr ~layout:t.layout t.arena obj i) p

(* A page takes its word storage on its first write: one with only
   never-written objects (pure garbage without references) never needs
   any. *)
let ensure_words t =
  if Heap_obj.words_length t.words = 0 then
    t.words <- Heap_obj.take_words t.arena (word_bits t.layout t.size)

(* Zero the payload on its first write. *)
let materialise t obj =
  ensure_words t;
  let base = refs_base t obj + Heap_obj.nrefs t.arena obj in
  for j = base to base + Heap_obj.nwords t.arena obj - 1 do
    Heap_obj.word_set t.words j 0
  done;
  Heap_obj.set_payload_written t.arena obj

let[@inline] get_word_at t obj addr =
  if Heap_obj.payload_written t.arena obj then read t addr else 0

let[@inline] set_word_at t obj addr v =
  if not (Heap_obj.payload_written t.arena obj) then materialise t obj;
  write t addr v

let get_word t obj i =
  get_word_at t obj (Heap_obj.payload_addr ~layout:t.layout t.arena obj i)

let set_word t obj i v =
  set_word_at t obj (Heap_obj.payload_addr ~layout:t.layout t.arena obj i) v

(* The word loops below skip bounds checks, so the object must fit. *)
let check_fits t addr bytes =
  if addr < t.start || addr + bytes > t.start + t.size then
    invalid_arg "Page: object does not fit the page"

let new_object t ~id ~addr ~nrefs ~nwords =
  check_fits t addr (Layout.object_bytes t.layout ~nrefs ~nwords);
  let obj = Heap_obj.alloc t.arena ~layout:t.layout ~id ~addr ~nrefs ~nwords in
  add_object t obj;
  if nrefs > 0 then begin
    ensure_words t;
    let base = refs_base t obj in
    for i = base to base + nrefs - 1 do
      Heap_obj.word_set t.words i Addr.null
    done
  end;
  obj

let move_object ~src ~dst obj ~new_addr =
  let a = src.arena in
  check_fits dst new_addr (Heap_obj.size a obj);
  remove_object src obj;
  let from = refs_base src obj in
  let n =
    Heap_obj.nrefs a obj
    + if Heap_obj.payload_written a obj then Heap_obj.nwords a obj else 0
  in
  Heap_obj.set_addr a obj new_addr;
  Heap_obj.incr_relocations a obj;
  add_object dst obj;
  if n > 0 then ensure_words dst;
  let into = refs_base dst obj in
  for i = 0 to n - 1 do
    Heap_obj.word_set dst.words (into + i)
      (Heap_obj.word_get src.words (from + i))
  done

let free_bytes t = t.size - t.top

let used_bytes t = t.top

(* Bit index of an object: its word offset within the page. *)
let bit_of t obj = (Heap_obj.addr t.arena obj - t.start) / 8

let reset_mark_state t =
  Bitmap.reset t.livemap;
  t.live_bytes <- 0;
  t.live_objects <- 0;
  t.prev_hot_bytes <- t.hot_bytes;
  t.hot_bytes <- 0;
  let prev = t.hot_prev in
  t.hot_prev <- t.hot_cur;
  Bitmap.reset prev;
  t.hot_cur <- prev

let mark_live t obj =
  let bit = bit_of t obj in
  if Bitmap.get t.livemap bit then false
  else begin
    Bitmap.set t.livemap bit;
    t.live_bytes <- t.live_bytes + Heap_obj.size t.arena obj;
    t.live_objects <- t.live_objects + 1;
    true
  end

let is_marked_live t obj = Bitmap.get t.livemap (bit_of t obj)

let iter_live t f =
  Bitmap.iter_set t.livemap (fun bit ->
      let obj = object_at t ~offset:(bit * 8) in
      if obj != Heap_obj.none then f obj)

let live_ratio t = float_of_int t.live_bytes /. float_of_int t.size

let flag_hot t obj =
  let already = Bitmap.test_and_set t.hot_cur (bit_of t obj) in
  if not already then t.hot_bytes <- t.hot_bytes + Heap_obj.size t.arena obj;
  not already

let is_hot t obj = Bitmap.get t.hot_cur (bit_of t obj)

let was_hot t obj = Bitmap.get t.hot_prev (bit_of t obj)

let cold_bytes t = t.live_bytes - t.hot_bytes

let weighted_live_bytes t ~cold_confidence =
  let cold = cold_bytes t in
  if t.hot_bytes = 0 then cold
  else
    t.hot_bytes
    + int_of_float (float_of_int cold *. (1.0 -. cold_confidence))
