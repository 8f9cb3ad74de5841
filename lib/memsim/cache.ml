type geometry = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
}

type t = {
  geom : geometry;
  rest : int;  (* ranks below rank 0: ways - 1 *)
  set_mask : int;
  line_shift : int;
  (* Each set in recency order: rank 0, the most recently used line, is
     mru.(set); ranks 1 .. ways-1 are tags.(set * rest + rank - 1), the
     last valid rank the least recently used.  -1 = invalid; a set fills
     rank by rank and only [invalidate_all] clears a tag, so a set's
     invalid ranks are always a suffix of it.  True LRU per set is fully
     determined by this order, so no stamps.  Rank 0 apart keeps the fast
     path's reads in a dense array of one int per set. *)
  mru : int array;
  tags : int array;
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
    rest = geom.ways - 1;
    set_mask = sets - 1;
    line_shift = log2 geom.line_bytes;
    mru = Array.make sets (-1);
    tags = Array.make (sets * (geom.ways - 1)) (-1);
  }

let geometry t = t.geom

let[@inline] line_of_addr t addr = addr lsr t.line_shift

(* Move-to-front in one pass, for a [line] that is not at rank 0: [line]
   goes to rank 0 and each older tag moves down one rank, until the pass
   reaches [line] itself (a hit) or the end of the set, where the last tag
   drops out as the LRU victim.  In a set that is not full the pass also
   moves the invalid suffix down one rank, which leaves it as it was.  A
   counting loop over mutable locals, not a local recursive function, so
   nothing is allocated per call. *)
let[@inline never] access_slow t line =
  let set = line land t.set_mask in
  let carry = ref (Array.unsafe_get t.mru set) in
  Array.unsafe_set t.mru set line;
  let tags = t.tags in
  let slot = ref (set * t.rest) in
  let stop = !slot + t.rest in
  let hit = ref false in
  while !slot < stop do
    let s = !slot in
    let tag = Array.unsafe_get tags s in
    Array.unsafe_set tags s !carry;
    if tag = line then begin
      hit := true;
      slot := stop
    end
    else begin
      carry := tag;
      slot := s + 1
    end
  done;
  !hit

let[@inline] is_mru t line = Array.unsafe_get t.mru (line land t.set_mask) = line

(* Small enough to inline across modules without flambda, so a hit on the
   set's MRU line costs the callers one tag compare and no call. *)
let[@inline] access t line = is_mru t line || access_slow t line

let[@inline] insert t line = ignore (access t line : bool)

let probe t line =
  let set = line land t.set_mask in
  let slot = ref (set * t.rest) in
  let stop = !slot + t.rest in
  while !slot < stop && Array.unsafe_get t.tags !slot <> line do
    incr slot
  done;
  Array.unsafe_get t.mru set = line || !slot < stop

let invalidate_all t =
  Array.fill t.mru 0 (Array.length t.mru) (-1);
  Array.fill t.tags 0 (Array.length t.tags) (-1)
