module Vec = Hcsgc_util.Vec

(* A handle is [generation lsl slot_bits lor slot]. *)
type t = int

let slot_bits = 32
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl (Sys.int_size - slot_bits - 1)) - 1

let none = -1
let[@inline] to_int h = h

(* Word [i] is the native-endian int64 at byte [8 i]; [Bytes.create]
   leaves it uninitialised and the GC never scans it. *)
type words = Bytes.t

let no_words = Bytes.empty
let[@inline] words_length w = Bytes.length w lsr 3
let[@inline] word_get w i = Int64.to_int (Bytes.get_int64_ne w (i lsl 3))
let[@inline] word_set w i v = Bytes.set_int64_ne w (i lsl 3) (Int64.of_int v)

(* One int column per field, indexed by slot.  A column is a directory of
   fixed-size chunks, and growing the arena adds one chunk to every
   column: no column is ever copied, so growth leaves no doubled array
   behind and the slack is under one chunk.  Returned slots wait on the
   [free_slots] stack (its first [nfree] entries); [high] is the first
   never-used slot. *)
type arena = {
  mutable id : int array array;
  mutable addr : int array array;
  mutable size : int array array;
  mutable nrefs : int array array;
  mutable nwords : int array array;
  mutable relocations : int array array;
  mutable page_id : int array array;
  mutable written : int array array;  (* 1 once the payload is materialised *)
  mutable gen : int array array;
  mutable free_slots : int array;
  mutable nfree : int;
  mutable high : int;
  words_pool : Bytes.t Vec.t;
  index_pool : Bytes.t Vec.t;
}

let chunk_bits = 12
let chunk_mask = (1 lsl chunk_bits) - 1

(* No chunk until the first allocation: building a VM allocates none. *)
let create_arena () =
  {
    id = [||];
    addr = [||];
    size = [||];
    nrefs = [||];
    nwords = [||];
    relocations = [||];
    page_id = [||];
    written = [||];
    gen = [||];
    free_slots = [||];
    nfree = 0;
    high = 0;
    words_pool = Vec.create ();
    index_pool = Vec.create ();
  }

let[@inline] slot h = h land slot_mask

(* Typed [int]: a polymorphic array access would compile to the generic
   path (a float-array tag test, and [caml_modify] on every store). *)
let[@inline] get (col : int array array) s : int =
  Array.unsafe_get (Array.unsafe_get col (s lsr chunk_bits)) (s land chunk_mask)

let[@inline] set (col : int array array) s (v : int) =
  Array.unsafe_set
    (Array.unsafe_get col (s lsr chunk_bits))
    (s land chunk_mask) v

let add_chunk col = Array.append col [| Array.make (chunk_mask + 1) 0 |]

let grow a =
  a.id <- add_chunk a.id;
  a.addr <- add_chunk a.addr;
  a.size <- add_chunk a.size;
  a.nrefs <- add_chunk a.nrefs;
  a.nwords <- add_chunk a.nwords;
  a.relocations <- add_chunk a.relocations;
  a.page_id <- add_chunk a.page_id;
  a.written <- add_chunk a.written;
  a.gen <- add_chunk a.gen

let fresh_slot a =
  if a.nfree > 0 then begin
    a.nfree <- a.nfree - 1;
    Array.unsafe_get a.free_slots a.nfree
  end
  else begin
    if a.high = Array.length a.id lsl chunk_bits then grow a;
    let s = a.high in
    a.high <- s + 1;
    s
  end

let alloc a ~layout ~id ~addr ~nrefs ~nwords =
  let size = Layout.object_bytes layout ~nrefs ~nwords in
  let s = fresh_slot a in
  set a.id s id;
  set a.addr s addr;
  set a.size s size;
  set a.nrefs s nrefs;
  set a.nwords s nwords;
  set a.relocations s 0;
  set a.page_id s (-1);
  set a.written s 0;
  (get a.gen s lsl slot_bits) lor s

let[@inline] of_slot a s = (get a.gen s lsl slot_bits) lor s

let[@inline] is_live a h =
  let s = slot h in
  h >= 0 && s < a.high && get a.gen s = h lsr slot_bits

let push_free a s =
  if a.nfree = Array.length a.free_slots then begin
    let bigger = Array.make (max 64 (2 * a.nfree)) 0 in
    Array.blit a.free_slots 0 bigger 0 a.nfree;
    a.free_slots <- bigger
  end;
  Array.unsafe_set a.free_slots a.nfree s;
  a.nfree <- a.nfree + 1

(* Only the generation column is touched: every further column written
   here would be another cache miss per object when a page frees its
   objects. *)
let[@inline] free_slot a s =
  set a.gen s ((get a.gen s + 1) land gen_mask);
  push_free a s

let[@inline] free a h = if is_live a h then free_slot a (slot h)

let live_count a = a.high - a.nfree

(* Every access bounds-checks the slot against [high] (one compare), so a
   forged or [none] handle raises rather than reading outside a column. *)
let out_of_range () = invalid_arg "Heap_obj: handle out of range"

let[@inline] checked a h =
  let s = slot h in
  if s >= a.high then out_of_range ();
  s

let[@inline] id a h = get a.id (checked a h)
let[@inline] addr a h = get a.addr (checked a h)
let[@inline] size a h = get a.size (checked a h)
let[@inline] nrefs a h = get a.nrefs (checked a h)
let[@inline] nwords a h = get a.nwords (checked a h)
let[@inline] relocations a h = get a.relocations (checked a h)
let[@inline] page_id a h = get a.page_id (checked a h)
let[@inline] payload_written a h = get a.written (checked a h) <> 0
let[@inline] set_addr a h v = set a.addr (checked a h) v
let[@inline] set_page_id a h v = set a.page_id (checked a h) v
let[@inline] set_payload_written a h = set a.written (checked a h) 1

let incr_relocations a h =
  let s = checked a h in
  set a.relocations s (get a.relocations s + 1)

let[@inline] live_addr a h =
  let s = slot h in
  if h >= 0 && s < a.high && get a.gen s = h lsr slot_bits then get a.addr s
  else -1

let ref_slot_addr ~layout a h i =
  let s = checked a h in
  if i < 0 || i >= get a.nrefs s then
    invalid_arg "Heap_obj.ref_slot_addr: slot out of range";
  get a.addr s + layout.Layout.header_bytes + (i * layout.Layout.word_bytes)

let payload_addr ~layout a h i =
  let s = checked a h in
  if i < 0 || i >= get a.nwords s then
    invalid_arg "Heap_obj.payload_addr: word out of range";
  get a.addr s + layout.Layout.header_bytes
  + ((get a.nrefs s + i) * layout.Layout.word_bytes)

(* ---- page resources ---------------------------------------------- *)

(* Exact-length reuse, newest first; a pool never holds more buffers
   than the heap's peak page count. *)
let take_exact pool len fresh =
  let rec find i =
    if i < 0 then fresh len
    else
      let b = Vec.unsafe_get pool i in
      if Bytes.length b = len then begin
        let last = Vec.length pool - 1 in
        Vec.set pool i (Vec.unsafe_get pool last);
        Vec.truncate pool last;
        b
      end
      else find (i - 1)
  in
  find (Vec.length pool - 1)

let take_words a n = take_exact a.words_pool (8 * n) Bytes.create

let give_words a w = if words_length w > 0 then Vec.push a.words_pool w

(* Every byte 0xff: every 32-bit entry reads -1. *)
let take_index a n =
  take_exact a.index_pool (4 * n) (fun len -> Bytes.make len '\xff')

let give_index a ix = Vec.push a.index_pool ix
