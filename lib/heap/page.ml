module Bitmap = Hcsgc_util.Bitmap
module Int_tbl = Hcsgc_util.Int_tbl

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
  mutable index : int array;
  mutable index_shift : int;
  mutable index_used : int;
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

   Byte offset -> handle, open-addressed with linear probing over one
   flat int array of (key, handle) pairs: [index.(2 i)] is slot [i]'s key
   (-1 = empty), [index.(2 i + 1)] its handle ([Heap_obj.none] = empty or
   removed).

   Removal blanks the slot's handle and keeps its key, so probe chains
   never break and there are no tombstones.  This is exact for any call
   order: a removed key's handle reads exactly as a miss does, and
   re-adding at that offset reuses the slot.  Dead keys keep their slots,
   but a page never re-keys one: production registrations are bump
   allocations, whose offsets only increase, so the index holds at most
   one key per object ever placed on the page.  [release] clears the
   array and hands it back to the arena's pool, so a recycled index may
   start larger than 16 slots. *)

(* What a released page keeps: a two-slot index of empty keys (never
   written — [add_object] refuses a released page) and no storage. *)
let released_index = Array.make 4 (-1)

(* The storage of a page no object has written to yet, and of a released
   page. *)
let no_words = Heap_obj.no_words

let[@inline] capacity ix = Array.length ix / 2

(* The slot holding [key], or the empty slot where it would go (the load
   factor stays at most 3/4, so one exists).  A negative key stops at an
   empty slot, whose handle is [none]. *)
let rec probe ix mask i key =
  let k = Array.unsafe_get ix (2 * i) in
  if k = key || k = -1 then i else probe ix mask ((i + 1) land mask) key

let[@inline] slot t key =
  let ix = t.index in
  probe ix (capacity ix - 1) (Int_tbl.home_slot ~shift:t.index_shift key) key

(* The outgrown array is left to the OCaml GC, not pooled: pooling it
   would hand small indexes to new pages that then grow again, and the
   pool would gain an entry per growth.  Only [release] pools, so the
   pool holds at most one array per page and its arrays are full-grown. *)
let index_grow t =
  let old = t.index in
  let cap = 2 * capacity old in
  t.index <- Array.make (2 * cap) (-1);
  t.index_shift <- Int_tbl.shift_for ~capacity:cap;
  for i = 0 to capacity old - 1 do
    let k = Array.unsafe_get old (2 * i) in
    if k <> -1 then begin
      let j = slot t k in
      Array.unsafe_set t.index (2 * j) k;
      Array.unsafe_set t.index
        ((2 * j) + 1)
        (Array.unsafe_get old ((2 * i) + 1))
    end
  done

let index_set t key obj =
  let i = slot t key in
  if Array.unsafe_get t.index (2 * i) = key then
    Array.unsafe_set t.index ((2 * i) + 1) (Heap_obj.to_int obj)
  else begin
    Array.unsafe_set t.index (2 * i) key;
    Array.unsafe_set t.index ((2 * i) + 1) (Heap_obj.to_int obj);
    t.index_used <- t.index_used + 1;
    if 4 * t.index_used > 3 * capacity t.index then index_grow t
  end

let create ~layout ~arena ~id ~cls ~start ~size ~birth_cycle =
  let bits = word_bits layout size in
  let index = Heap_obj.take_index arena in
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
    index;
    index_shift = Int_tbl.shift_for ~capacity:(capacity index);
    index_used = 0;
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

let release t =
  let ix = t.index in
  if ix != released_index then begin
    for i = 0 to capacity ix - 1 do
      if Array.unsafe_get ix (2 * i) <> -1 then begin
        let h = Array.unsafe_get ix ((2 * i) + 1) in
        if h <> -1 then Heap_obj.free t.arena (Heap_obj.of_int h);
        Array.unsafe_set ix (2 * i) (-1);
        Array.unsafe_set ix ((2 * i) + 1) (-1)
      end
    done;
    Heap_obj.give_index t.arena ix;
    Heap_obj.give_words t.arena t.words;
    t.index <- released_index;
    t.index_shift <- Int_tbl.shift_for ~capacity:(capacity released_index);
    t.index_used <- 0;
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
  if t.index == released_index then
    invalid_arg "Page.add_object: page is released";
  Heap_obj.set_page_id t.arena obj t.id;
  index_set t (offset_of_addr t (Heap_obj.addr t.arena obj)) obj

let remove_object t obj =
  Heap_obj.set_page_id t.arena obj (-1);
  let offset = offset_of_addr t (Heap_obj.addr t.arena obj) in
  let i = slot t offset in
  if Array.unsafe_get t.index (2 * i) = offset then
    Array.unsafe_set t.index ((2 * i) + 1) (-1)

(* A miss ends on an empty slot (handle [none]) or on a removed key
   (handle [none]), so the handle read is the answer either way. *)
let object_at t ~offset =
  Heap_obj.of_int (Array.unsafe_get t.index ((2 * slot t offset) + 1))

let find_object t ~offset =
  let obj = object_at t ~offset in
  if obj == Heap_obj.none then None else Some obj

let iter_objects t f =
  let ix = t.index in
  for i = 0 to capacity ix - 1 do
    let h = Array.unsafe_get ix ((2 * i) + 1) in
    if h <> -1 then f (Array.unsafe_get ix (2 * i)) (Heap_obj.of_int h)
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

let state_to_string = function
  | Active -> "active"
  | In_ec -> "in-ec"
  | Freed -> "freed"

let pp fmt t =
  Format.fprintf fmt "page#%d[%s,%s,0x%x+%dK,top=%d,live=%d,hot=%d]" t.id
    (Layout.size_class_to_string t.cls)
    (state_to_string t.state) t.start (t.size / 1024) t.top t.live_bytes
    t.hot_bytes
