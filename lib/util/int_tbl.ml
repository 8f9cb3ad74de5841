(* Open-addressed linear-probing int -> int hash table.

   Flat parallel int arrays, power-of-two capacity, Fibonacci hashing:
   a key's home slot is the top log2(capacity) bits of [key * fib], so
   every key bit moves it.  (The low bits of that product depend only on
   the key's low bits; taking them sent every word-aligned offset to a
   slot that is a multiple of 8.)
   No boxing anywhere: lookups return an int sentinel instead of an
   option, and [clear] keeps the backing arrays, so a table reused
   across GC cycles allocates only when it grows past its high-water
   capacity.  There is deliberately no [remove] — the GC-side user
   (forwarding tables) only ever adds and looks up, and leaving deletion
   out keeps probe chains tombstone-free. *)

type t = {
  mutable keys : int array;  (* empty slots hold [empty] *)
  mutable vals : int array;
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable shift : int;  (* Sys.int_size - log2 capacity *)
  mutable count : int;
}

let empty = -1

(* Fibonacci-style odd multiplier (the 64-bit 2^64/phi constant truncated
   to OCaml's 63-bit int range).  [lsr] by [shift] keeps the top bits of
   the product and is always in [0, capacity); at capacity 1 the shift is
   [Sys.int_size] and every key lands in slot 0. *)
let fib = 0x1E3779B97F4A7C15

let[@inline] slot_of t key = (key * fib) lsr t.shift

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let default_capacity = 16

let create ?(capacity = default_capacity) () =
  let cap = ref 1 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  {
    keys = Array.make !cap empty;
    vals = Array.make !cap 0;
    mask = !cap - 1;
    shift = Sys.int_size - log2 !cap;
    count = 0;
  }

let length t = t.count

(* Probe for [key]: the slot holding it, or the empty slot where it
   would go.  The load factor stays below 3/4, so an empty slot always
   exists. *)
let rec probe_loop keys mask i key =
  let k = Array.unsafe_get keys i in
  if k = key || k = empty then i else probe_loop keys mask ((i + 1) land mask) key

let[@inline] probe t key = probe_loop t.keys t.mask (slot_of t key) key

let rec insert_fresh keys mask i =
  if Array.unsafe_get keys i = empty then i
  else insert_fresh keys mask ((i + 1) land mask)

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let ncap = (t.mask + 1) * 2 in
  t.keys <- Array.make ncap empty;
  t.vals <- Array.make ncap 0;
  t.mask <- ncap - 1;
  t.shift <- t.shift - 1;
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k <> empty then begin
      let j = insert_fresh t.keys t.mask (slot_of t k) in
      Array.unsafe_set t.keys j k;
      Array.unsafe_set t.vals j (Array.unsafe_get old_vals i)
    end
  done

let set t ~key ~value =
  if key < 0 then invalid_arg "Int_tbl.set: negative key";
  let i = probe t key in
  if Array.unsafe_get t.keys i = empty then begin
    Array.unsafe_set t.keys i key;
    Array.unsafe_set t.vals i value;
    t.count <- t.count + 1;
    if 4 * t.count > 3 * (t.mask + 1) then grow t
  end
  else Array.unsafe_set t.vals i value

let add_if_absent t ~key ~value =
  if key < 0 then invalid_arg "Int_tbl.add_if_absent: negative key";
  let i = probe t key in
  if Array.unsafe_get t.keys i = empty then begin
    Array.unsafe_set t.keys i key;
    Array.unsafe_set t.vals i value;
    t.count <- t.count + 1;
    if 4 * t.count > 3 * (t.mask + 1) then grow t;
    -1
  end
  else Array.unsafe_get t.vals i

let get t ~key ~default =
  if key < 0 then default
  else
    let i = probe t key in
    if Array.unsafe_get t.keys i = empty then default
    else Array.unsafe_get t.vals i

let mem t ~key =
  key >= 0 && Array.unsafe_get t.keys (probe t key) <> empty

let clear t =
  if t.count > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) empty;
    t.count <- 0
  end

let iter t f =
  for i = 0 to Array.length t.keys - 1 do
    let k = Array.unsafe_get t.keys i in
    if k <> empty then f k (Array.unsafe_get t.vals i)
  done

let capacity t = t.mask + 1

let mean_probe_length t =
  if t.count = 0 then 0.0
  else begin
    let total = ref 0 in
    Array.iteri
      (fun i k ->
        if k <> empty then total := !total + ((i - slot_of t k) land t.mask) + 1)
      t.keys;
    float_of_int !total /. float_of_int t.count
  end
