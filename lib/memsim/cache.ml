type geometry = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
}

type t = {
  geom : geometry;
  ways : int;
  set_mask : int;
  line_shift : int;
  (* tags.(set * ways + way); -1 = invalid.  Ways fill in order (a miss
     takes the first invalid way and only [invalidate_all] clears a tag),
     so a set's invalid ways are always a suffix of it. *)
  tags : int array;
  (* LRU stamps, same indexing; larger = more recent *)
  stamps : int array;
  (* Per-set MRU memo: mru.(set) is the slot (index into [tags]) touched
     last in [set].  That slot already holds its set's largest stamp, and
     victim choice reads only the stamp order within a set, so a hit on it
     needs no re-stamp: skipping the touch leaves every later hit, miss
     and victim exactly as the plain LRU would have them.  Entries start
     at slot 0, which is safe: slot 0 holds only lines of set 0, where it
     is also the first way filled. *)
  mru : int array;
  mutable clock : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create geom =
  if not (is_pow2 geom.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if geom.ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  let sets = geom.size_bytes / (geom.ways * geom.line_bytes) in
  if sets <= 0 || not (is_pow2 sets) then
    invalid_arg "Cache.create: geometry must yield a power-of-two set count";
  {
    geom;
    ways = geom.ways;
    set_mask = sets - 1;
    line_shift = log2 geom.line_bytes;
    tags = Array.make (sets * geom.ways) (-1);
    stamps = Array.make (sets * geom.ways) 0;
    mru = Array.make sets 0;
    clock = 0;
  }

let geometry t = t.geom

let[@inline] line_of_addr t addr = addr lsr t.line_shift

(* One pass over [line]'s set that either finds the line or picks the way
   to fill: returns the slot holding [line], or [-1 - slot] for the
   victim — the first invalid way, else the way with the smallest stamp
   (the first such way on a tie).  Since invalid ways are a suffix, the
   first invalid way also ends the search.  A plain counting loop, not a
   local recursive function: a [let rec] closure here would capture its
   free variables and be allocated per call.  (The refs compile to mutable
   locals — no allocation.) *)
let lookup t line =
  let base = (line land t.set_mask) * t.ways in
  let last = base + t.ways in
  let res = ref min_int in
  let best = ref base and best_stamp = ref max_int in
  let slot = ref base in
  while !res = min_int && !slot < last do
    let s = !slot in
    let tag = Array.unsafe_get t.tags s in
    if tag = line then res := s
    else if tag = -1 then res := -1 - s
    else begin
      let stamp = Array.unsafe_get t.stamps s in
      if stamp < !best_stamp then begin
        best := s;
        best_stamp := stamp
      end
    end;
    incr slot
  done;
  if !res = min_int then -1 - !best else !res

(* The memo missed: full lookup, fill on a miss, then the LRU touch. *)
let[@inline never] access_slow t line =
  let r = lookup t line in
  let slot = if r >= 0 then r else -1 - r in
  if r < 0 then Array.unsafe_set t.tags slot line;
  Array.unsafe_set t.mru (line land t.set_mask) slot;
  t.clock <- t.clock + 1;
  Array.unsafe_set t.stamps slot t.clock;
  r >= 0

(* Small enough to inline across modules without flambda, so a hit on the
   MRU way costs the callers one tag compare and no call. *)
let[@inline] access t line =
  Array.unsafe_get t.tags (Array.unsafe_get t.mru (line land t.set_mask))
  = line
  || access_slow t line

let[@inline] insert t line = ignore (access t line : bool)

let probe t line = lookup t line >= 0

let invalidate_all t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  Array.fill t.mru 0 (Array.length t.mru) 0;
  t.clock <- 0
