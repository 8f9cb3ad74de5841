(* The stream table as struct-of-arrays: stream [i] is
   (last.(i), dir.(i), hits.(i)).  Flat int arrays keep the loops below to
   straight loads, with no pointer chase per slot.

   Slots are never freed between resets and a new stream takes the first
   free slot, so the used slots are always the prefix [0, used).  Two more
   structures answer the per-access questions without a scan:
   - recency: a doubly linked list of the used slots through [newer] and
     [older] (-1 ends it), most recent at [head].  Each observe touches one
     slot, so the list tail is the slot touched least recently — the LRU
     victim once every slot is in use.
   - match buckets: bit [s] of [bucket.(last.(s) land 63)] is set for every
     used stream [s], so the streams whose [last] is [line - 1] or
     [line + 1] are all among the bits of two buckets. *)
type t = {
  last : int array;  (* last line seen in this stream; -1 = free slot *)
  dir : int array;  (* +1 ascending, -1 descending, 0 undecided *)
  hits : int array;  (* consecutive stride confirmations *)
  newer : int array;
  older : int array;
  bucket : int array;  (* 64 stream bitmasks *)
  degree : int;
  confirm : int;
  mutable used : int;
  mutable head : int;
  mutable tail : int;
}

(* Stream bitmasks live in an OCaml int: 63 bits, the top one the sign. *)
let max_streams = 62

let create ?(streams = 16) ?(degree = 4) ?(confirm = 2) () =
  if streams < 1 then invalid_arg "Prefetcher.create: need at least one stream";
  if streams > max_streams then
    invalid_arg "Prefetcher.create: at most 62 streams";
  if degree < 1 then invalid_arg "Prefetcher.create: degree must be positive";
  if confirm < 1 then invalid_arg "Prefetcher.create: confirm must be positive";
  {
    last = Array.make streams (-1);
    dir = Array.make streams 0;
    hits = Array.make streams 0;
    newer = Array.make streams (-1);
    older = Array.make streams (-1);
    bucket = Array.make 64 0;
    degree;
    confirm;
    used = 0;
    head = -1;
    tail = -1;
  }

let degree t = t.degree

let reset t =
  let n = Array.length t.last in
  Array.fill t.last 0 n (-1);
  Array.fill t.dir 0 n 0;
  Array.fill t.hits 0 n 0;
  Array.fill t.bucket 0 64 0;
  t.used <- 0;
  t.head <- -1;
  t.tail <- -1

(* Index of the single set bit of [b], by de Bruijn multiplication: for
   each of the 62 stream bits, the top six bits of the 63-bit product are a
   different window of the constant, so a 64-entry table names the bit. *)
let debruijn = 0x022fdd63cc95386d

let bit_of_window =
  let t = Array.make 64 0 in
  for k = 0 to max_streams - 1 do
    t.(((1 lsl k) * debruijn) lsr 57) <- k
  done;
  t

let[@inline] bit_index b = Array.unsafe_get bit_of_window ((b * debruijn) lsr 57)

(* Make used slot [s] the most recent. *)
let[@inline] touch t s =
  let h = t.head in
  if h <> s then begin
    let nw = Array.unsafe_get t.newer s and od = Array.unsafe_get t.older s in
    (* [s] is in the list but not its head, so [nw >= 0]. *)
    Array.unsafe_set t.older nw od;
    if od >= 0 then Array.unsafe_set t.newer od nw else t.tail <- nw;
    Array.unsafe_set t.older s h;
    Array.unsafe_set t.newer s (-1);
    Array.unsafe_set t.newer h s;
    t.head <- s
  end

(* Point stream [s] at [line], keeping its bucket bit in step. *)
let[@inline] set_last t s line =
  let bit = 1 lsl s in
  let old = Array.unsafe_get t.last s in
  if old >= 0 then begin
    let k = old land 63 in
    Array.unsafe_set t.bucket k (Array.unsafe_get t.bucket k land lnot bit)
  end;
  let k = line land 63 in
  Array.unsafe_set t.bucket k (Array.unsafe_get t.bucket k lor bit);
  Array.unsafe_set t.last s line

(* The hot path: called once per demand access by the cache simulators.
   Returns the confirmed stride (+1 or -1) when [line] extends a confirmed
   stream, else 0; allocation-free (index loops over mutable locals, no
   closures or options). *)
let step t line =
  if line < 0 then invalid_arg "Prefetcher.step: negative line";
  (* The first stream, in index order, whose expected next line is [line]:
     try the candidate bits lowest first and verify each, so a bucket
     collision never matches and no true match is skipped. *)
  let cand =
    ref
      (Array.unsafe_get t.bucket ((line - 1) land 63)
      lor Array.unsafe_get t.bucket ((line + 1) land 63))
  in
  let matched = ref (-1) and mdelta = ref 0 in
  while !cand <> 0 do
    let b = !cand land (- !cand) in
    let s = bit_index b in
    let delta = line - Array.unsafe_get t.last s in
    let dir = Array.unsafe_get t.dir s in
    if (delta = 1 || delta = -1) && (dir = 0 || dir = delta) then begin
      matched := s;
      mdelta := delta;
      cand := 0
    end
    else cand := !cand lxor b
  done;
  if !matched >= 0 then begin
    let s = !matched in
    let delta = !mdelta in
    let hits = Array.unsafe_get t.hits s + 1 in
    set_last t s line;
    Array.unsafe_set t.dir s delta;
    Array.unsafe_set t.hits s hits;
    touch t s;
    if hits >= t.confirm then delta else 0
  end
  else begin
    (* A new stream: the first free slot, else the least recently used. *)
    let v =
      if t.used < Array.length t.last then begin
        let v = t.used in
        t.used <- v + 1;
        Array.unsafe_set t.newer v (-1);
        Array.unsafe_set t.older v t.head;
        if t.head >= 0 then Array.unsafe_set t.newer t.head v else t.tail <- v;
        t.head <- v;
        v
      end
      else begin
        let v = t.tail in
        touch t v;
        v
      end
    in
    set_last t v line;
    Array.unsafe_set t.dir v 0;
    Array.unsafe_set t.hits v 0;
    0
  end

let observe t line =
  let d = step t line in
  if d = 0 then [] else List.init t.degree (fun i -> line + (d * (i + 1)))
