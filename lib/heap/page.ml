module Bitmap = Hcsgc_util.Bitmap
module Int_tbl = Hcsgc_util.Int_tbl

type state = Active | In_ec | Freed

type tier_loc = Dram | Far

(* Byte offset -> object, open-addressed with linear probing over two
   flat arrays (see [object_at] below). *)
type obj_index = {
  mutable keys : int array;  (* byte offset per slot; -1 = empty *)
  mutable objs : Heap_obj.t array;  (* [no_obj] = empty or removed *)
  mutable shift : int;  (* Sys.int_size - log2 capacity *)
  mutable used : int;  (* slots holding a key, removed ones included *)
}

type t = {
  id : int;
  cls : Layout.size_class;
  start : int;
  size : int;
  birth_cycle : int;
  mutable top : int;
  mutable state : state;
  objects : obj_index;
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
  (* Last-find memo for [find_object_exn]: [memo_obj] is the object last
     found at [memo_off] (-1 = empty).  Invalidated whenever the object
     table changes, so a memo hit is always current; purely an accelerator
     for the barrier hot path — it skips the hash walk, nothing else. *)
  mutable memo_off : int;
  mutable memo_obj : Heap_obj.t;
}

let word_bits layout size = size / layout.Layout.word_bytes

(* The "no object" sentinel: what [object_at] returns on a miss, the
   value of empty and removed index slots, and the empty [memo_obj]. *)
let no_obj : Heap_obj.t =
  {
    Heap_obj.id = -1;
    addr = -1;
    size = 0;
    refs = [||];
    words = 0;
    payload = [||];
    relocations = 0;
    page_id = -1;
  }

(* ---- object index ------------------------------------------------

   Removal blanks the slot's value to [no_obj] and keeps its key, so
   probe chains never break and there are no tombstones.  This is exact
   for any call order: a removed key's value reads exactly as a miss
   does, and re-adding at that offset reuses the slot.  Dead keys keep
   their slots, but a page never re-keys one: every [Heap.alloc_page]
   makes a fresh [t] and production registrations are bump allocations,
   whose offsets only increase, so the index holds at most one key per
   object ever placed on the page. *)

let index_capacity = 16

let index_create () =
  {
    keys = Array.make index_capacity (-1);
    objs = Array.make index_capacity no_obj;
    shift = Int_tbl.shift_for ~capacity:index_capacity;
    used = 0;
  }

(* The slot holding [key], or the empty slot where it would go (the
   load factor stays at most 3/4, so one exists).  A negative key stops
   at an empty slot, whose value is [no_obj]. *)
let rec probe keys mask i key =
  let k = Array.unsafe_get keys i in
  if k = key || k = -1 then i else probe keys mask ((i + 1) land mask) key

let[@inline] slot ix key =
  let keys = ix.keys in
  probe keys (Array.length keys - 1) (Int_tbl.home_slot ~shift:ix.shift key) key

let index_grow ix =
  let old_keys = ix.keys and old_objs = ix.objs in
  let cap = 2 * Array.length old_keys in
  ix.keys <- Array.make cap (-1);
  ix.objs <- Array.make cap no_obj;
  ix.shift <- ix.shift - 1;
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k <> -1 then begin
      let j = slot ix k in
      Array.unsafe_set ix.keys j k;
      Array.unsafe_set ix.objs j (Array.unsafe_get old_objs i)
    end
  done

let index_set ix key obj =
  let i = slot ix key in
  if Array.unsafe_get ix.keys i = key then Array.unsafe_set ix.objs i obj
  else begin
    Array.unsafe_set ix.keys i key;
    Array.unsafe_set ix.objs i obj;
    ix.used <- ix.used + 1;
    if 4 * ix.used > 3 * Array.length ix.keys then index_grow ix
  end

let create ~layout ~id ~cls ~start ~size ~birth_cycle =
  let bits = word_bits layout size in
  {
    id;
    cls;
    start;
    size;
    birth_cycle;
    top = 0;
    state = Active;
    objects = index_create ();
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
    memo_off = -1;
    memo_obj = no_obj;
  }

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
  t.memo_off <- -1;
  obj.Heap_obj.page_id <- t.id;
  index_set t.objects (offset_of_addr t obj.Heap_obj.addr) obj

let remove_object t obj =
  t.memo_off <- -1;
  obj.Heap_obj.page_id <- -1;
  let ix = t.objects and offset = offset_of_addr t obj.Heap_obj.addr in
  let i = slot ix offset in
  if Array.unsafe_get ix.keys i = offset then Array.unsafe_set ix.objs i no_obj

(* A miss ends on an empty slot (value [no_obj]) or on a removed key
   (value [no_obj]), so the value read is the answer either way. *)
let object_at t ~offset =
  let ix = t.objects in
  Array.unsafe_get ix.objs (slot ix offset)

let find_object t ~offset =
  let obj = object_at t ~offset in
  if obj == no_obj then None else Some obj

let find_object_exn t ~offset =
  if offset = t.memo_off then t.memo_obj
  else begin
    let obj = object_at t ~offset in
    if obj == no_obj then raise Not_found;
    t.memo_off <- offset;
    t.memo_obj <- obj;
    obj
  end

let iter_objects t f =
  let { keys; objs; _ } = t.objects in
  for i = 0 to Array.length keys - 1 do
    let obj = Array.unsafe_get objs i in
    if obj != no_obj then f (Array.unsafe_get keys i) obj
  done

let free_bytes t = t.size - t.top

let used_bytes t = t.top

(* Bit index of an object: its word offset within the page. *)
let bit_of t obj = (obj.Heap_obj.addr - t.start) / 8

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
    t.live_bytes <- t.live_bytes + obj.Heap_obj.size;
    t.live_objects <- t.live_objects + 1;
    true
  end

let is_marked_live t obj = Bitmap.get t.livemap (bit_of t obj)

let iter_live t f =
  Bitmap.iter_set t.livemap (fun bit ->
      let obj = object_at t ~offset:(bit * 8) in
      if obj != no_obj then f obj)

let live_ratio t = float_of_int t.live_bytes /. float_of_int t.size

let flag_hot t obj =
  let already = Bitmap.test_and_set t.hot_cur (bit_of t obj) in
  if not already then t.hot_bytes <- t.hot_bytes + obj.Heap_obj.size;
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

let tier_to_string = function Dram -> "dram" | Far -> "far"

let pp fmt t =
  Format.fprintf fmt "page#%d[%s,%s,0x%x+%dK,top=%d,live=%d,hot=%d]" t.id
    (Layout.size_class_to_string t.cls)
    (state_to_string t.state) t.start (t.size / 1024) t.top t.live_bytes
    t.hot_bytes
