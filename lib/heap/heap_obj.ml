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

(* One cell of [cell_words] ints per slot, so an object's metadata sits
   on one or two host cache lines rather than one line per field:

     word 0  gen | written lsl 30 | relocations lsl 31
     word 1  addr
     word 2  id
     word 3  nrefs | nwords lsl 31
     word 4  size | (page_id + 1) lsl 31

   The cells are a directory of fixed-size chunks, and growing the arena
   adds one chunk: no cell is ever copied, so growth leaves no doubled
   array behind and the slack is under one chunk.  Returned slots wait on
   the [free_slots] stack (its first [nfree] entries); [high] is the first
   never-used slot. *)
type arena = {
  mutable cells : int array array;
  mutable free_slots : int array;
  mutable nfree : int;
  mutable high : int;
  words_pool : Bytes.t Vec.t;
  index_pool : Bytes.t Vec.t;
}

let chunk_bits = 12
let chunk_mask = (1 lsl chunk_bits) - 1
let cell_words = 5

(* Word 0.  [relocations] takes bits 31-62, so [incr_relocations] adds
   [1 lsl 31] and a count wrapping at 2{^32} leaves the bits below it
   alone. *)
let f_flags = 0
let written_bit = gen_mask + 1
let reloc_shift = 31
let f_addr = 1
let f_id = 2

(* Words 3 and 4: a 31-bit field below, a 32-bit one above. *)
let f_counts = 3
let f_size = 4
let low_bits = 31
let low_mask = (1 lsl low_bits) - 1

(* No chunk until the first allocation: building a VM allocates none. *)
let create_arena () =
  {
    cells = [||];
    free_slots = [||];
    nfree = 0;
    high = 0;
    words_pool = Vec.create ();
    index_pool = Vec.create ();
  }

let[@inline] slot h = h land slot_mask

(* Slot [s]'s field [f] is [at s f] of chunk [chunk a s].  Typed [int]:
   a polymorphic array access would compile to the generic path (a
   float-array tag test, and [caml_modify] on every store). *)
let[@inline] chunk a s : int array = Array.unsafe_get a.cells (s lsr chunk_bits)
let[@inline] at s f = ((s land chunk_mask) * cell_words) + f
let[@inline] get a s f = Array.unsafe_get (chunk a s) (at s f)
let[@inline] set a s f (v : int) = Array.unsafe_set (chunk a s) (at s f) v

let[@inline] gen a s = get a s f_flags land gen_mask

let grow a =
  a.cells <-
    Array.append a.cells [| Array.make ((chunk_mask + 1) * cell_words) 0 |]

let fresh_slot a =
  if a.nfree > 0 then begin
    a.nfree <- a.nfree - 1;
    Array.unsafe_get a.free_slots a.nfree
  end
  else begin
    if a.high = Array.length a.cells lsl chunk_bits then grow a;
    let s = a.high in
    a.high <- s + 1;
    s
  end

(* [size] is the narrowest of the fields [alloc] sets: it bounds [nrefs]
   and [nwords] (each under [size / 8]) well inside their own widths. *)
let alloc a ~layout ~id ~addr ~nrefs ~nwords =
  let size = Layout.object_bytes layout ~nrefs ~nwords in
  if size lsr low_bits <> 0 then
    invalid_arg "Heap_obj.alloc: object size does not fit 31 bits";
  let s = fresh_slot a in
  set a s f_addr addr;
  set a s f_id id;
  set a s f_counts (nrefs lor (nwords lsl low_bits));
  set a s f_size size;
  (gen a s lsl slot_bits) lor s

let[@inline] of_slot a s = (gen a s lsl slot_bits) lor s

let[@inline] is_live a h =
  let s = slot h in
  h >= 0 && s < a.high && gen a s = h lsr slot_bits

let push_free a s =
  if a.nfree = Array.length a.free_slots then begin
    let bigger = Array.make (max 64 (2 * a.nfree)) 0 in
    Array.blit a.free_slots 0 bigger 0 a.nfree;
    a.free_slots <- bigger
  end;
  Array.unsafe_set a.free_slots a.nfree s;
  a.nfree <- a.nfree + 1

(* Only word 0 is written, to the bumped generation alone: that also
   clears [written] and [relocations] for the slot's next object, and
   [alloc] rewrites words 1-4.  The cell is found once: this runs for
   every object a freed page held. *)
let[@inline] free_slot a s =
  let c = chunk a s and i = at s f_flags in
  Array.unsafe_set c i ((Array.unsafe_get c i + 1) land gen_mask);
  push_free a s

let[@inline] free a h = if is_live a h then free_slot a (slot h)

let live_count a = a.high - a.nfree

(* Every access bounds-checks the slot against [high] (one compare), so a
   forged or [none] handle raises rather than reading outside a cell. *)
let out_of_range () = invalid_arg "Heap_obj: handle out of range"

let[@inline] checked a h =
  let s = slot h in
  if s >= a.high then out_of_range ();
  s

let[@inline] id a h = get a (checked a h) f_id
let[@inline] addr a h = get a (checked a h) f_addr
let[@inline] size a h = get a (checked a h) f_size land low_mask
let[@inline] nrefs a h = get a (checked a h) f_counts land low_mask
let[@inline] nwords a h = get a (checked a h) f_counts lsr low_bits
let[@inline] relocations a h = get a (checked a h) f_flags lsr reloc_shift
let[@inline] page_id a h = (get a (checked a h) f_size lsr low_bits) - 1

let[@inline] payload_written a h =
  get a (checked a h) f_flags land written_bit <> 0

let[@inline] set_addr a h v = set a (checked a h) f_addr v

let[@inline] set_page_id a h p =
  let s = checked a h in
  if (p + 1) lsr 32 <> 0 then
    invalid_arg "Heap_obj.set_page_id: page id does not fit 32 bits";
  set a s f_size ((get a s f_size land low_mask) lor ((p + 1) lsl low_bits))

let[@inline] set_payload_written a h =
  let s = checked a h in
  set a s f_flags (get a s f_flags lor written_bit)

let incr_relocations a h =
  let s = checked a h in
  set a s f_flags (get a s f_flags + (1 lsl reloc_shift))

let[@inline] live_addr a h =
  let s = slot h in
  if h >= 0 && s < a.high && gen a s = h lsr slot_bits then get a s f_addr
  else -1

let ref_slot_addr ~layout a h i =
  let s = checked a h in
  if i < 0 || i >= get a s f_counts land low_mask then
    invalid_arg "Heap_obj.ref_slot_addr: slot out of range";
  get a s f_addr + layout.Layout.header_bytes + (i * layout.Layout.word_bytes)

let payload_addr ~layout a h i =
  let s = checked a h in
  let counts = get a s f_counts in
  if i < 0 || i >= counts lsr low_bits then
    invalid_arg "Heap_obj.payload_addr: word out of range";
  get a s f_addr + layout.Layout.header_bytes
  + (((counts land low_mask) + i) * layout.Layout.word_bytes)

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
