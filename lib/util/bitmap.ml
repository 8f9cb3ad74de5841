type t = { bits : Bytes.t; length : int }

let create n =
  if n < 0 then invalid_arg "Bitmap.create: negative size";
  { bits = Bytes.make ((n + 7) / 8) '\000'; length = n }

let length t = t.length

let[@inline] check t i =
  if i < 0 || i >= t.length then invalid_arg "Bitmap: index out of range"

let[@inline] get t i =
  check t i;
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let[@inline] set t i =
  check t i;
  let byte = i lsr 3 in
  let v = Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl (i land 7)) in
  Bytes.unsafe_set t.bits byte (Char.unsafe_chr v)

let clear t i =
  check t i;
  let byte = i lsr 3 in
  let v = Char.code (Bytes.unsafe_get t.bits byte) land lnot (1 lsl (i land 7)) in
  Bytes.unsafe_set t.bits byte (Char.unsafe_chr v)

(* One range check for the read and the write. *)
let[@inline] test_and_set t i =
  check t i;
  let byte = i lsr 3 and mask = 1 lsl (i land 7) in
  let v = Char.code (Bytes.unsafe_get t.bits byte) in
  if v land mask <> 0 then true
  else begin
    Bytes.unsafe_set t.bits byte (Char.unsafe_chr (v lor mask));
    false
  end

let reset t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

(* Byte-wise popcount table: livemap/hotmap accounting pop-counts every
   page's maps once per GC cycle, so this runs one table load per byte
   instead of one loop iteration per set bit. *)
let byte_pop_count =
  let table = Bytes.create 256 in
  for byte = 0 to 255 do
    let v = ref byte and n = ref 0 in
    while !v <> 0 do
      v := !v land (!v - 1);
      incr n
    done;
    Bytes.unsafe_set table byte (Char.unsafe_chr !n)
  done;
  table

let pop_count t =
  let count = ref 0 in
  for b = 0 to Bytes.length t.bits - 1 do
    count :=
      !count
      + Char.code
          (Bytes.unsafe_get byte_pop_count (Char.code (Bytes.unsafe_get t.bits b)))
  done;
  !count

let iter_set t f =
  for b = 0 to Bytes.length t.bits - 1 do
    let v = Char.code (Bytes.unsafe_get t.bits b) in
    if v <> 0 then
      for bit = 0 to 7 do
        if v land (1 lsl bit) <> 0 then
          let i = (b lsl 3) lor bit in
          if i < t.length then f i
      done
  done

(* First set bit at index >= i within byte [b] (whose value is [v]),
   else recurse into the following bytes.  Tail-recursive with int-only
   state so [next_set] scans without allocating. *)
let rec next_in_byte t b v bit =
  if bit > 7 then next_from_byte t (b + 1)
  else if v land (1 lsl bit) <> 0 then
    let i = (b lsl 3) lor bit in
    if i < t.length then i else -1
  else next_in_byte t b v (bit + 1)

and next_from_byte t b =
  if b >= Bytes.length t.bits then -1
  else
    let v = Char.code (Bytes.unsafe_get t.bits b) in
    if v = 0 then next_from_byte t (b + 1) else next_in_byte t b v 0

let next_set t i =
  if i < 0 then invalid_arg "Bitmap.next_set: negative index";
  if i >= t.length then -1
  else
    let b = i lsr 3 in
    let v = Char.code (Bytes.unsafe_get t.bits b) in
    let masked = v land lnot ((1 lsl (i land 7)) - 1) in
    if masked <> 0 then next_in_byte t b masked (i land 7)
    else next_from_byte t (b + 1)

let fold_set t ~init ~f =
  let acc = ref init in
  iter_set t (fun i -> acc := f !acc i);
  !acc
