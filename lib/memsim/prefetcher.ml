(* The stream table as struct-of-arrays: stream [i] is
   (last.(i), dir.(i), hits.(i), lru.(i)).  Flat int arrays keep the scans
   below to straight loads, with no pointer chase per slot. *)
type t = {
  last : int array;  (* last line seen in this stream; -1 = free slot *)
  dir : int array;  (* +1 ascending, -1 descending, 0 undecided *)
  hits : int array;  (* consecutive stride confirmations *)
  lru : int array;
  degree : int;
  confirm : int;
  mutable clock : int;
}

let create ?(streams = 16) ?(degree = 4) ?(confirm = 2) () =
  if streams < 1 then invalid_arg "Prefetcher.create: need at least one stream";
  {
    last = Array.make streams (-1);
    dir = Array.make streams 0;
    hits = Array.make streams 0;
    lru = Array.make streams 0;
    degree;
    confirm;
    clock = 0;
  }

let degree t = t.degree

let reset t =
  let n = Array.length t.last in
  Array.fill t.last 0 n (-1);
  Array.fill t.dir 0 n 0;
  Array.fill t.hits 0 n 0;
  Array.fill t.lru 0 n 0;
  t.clock <- 0

(* The hot path: called once per demand access by the cache simulators.
   Writes at most [degree t] prefetch line addresses into [buf] and returns
   how many were written; allocation-free (the scans are index loops, no
   closures or options). *)
let observe_into t line buf =
  if Array.length buf < t.degree then
    invalid_arg "Prefetcher.observe_into: buffer shorter than degree";
  t.clock <- t.clock + 1;
  let lasts = t.last and lrus = t.lru in
  let n = Array.length lasts in
  (* One scan finds the first stream whose expected next line matches
     and, in case none does, the slot a new stream takes: the first free
     one, else the least recently used (the first on a tie). *)
  let matched = ref (-1) in
  let mdelta = ref 0 in
  let free = ref (-1) and oldest = ref 0 in
  let i = ref 0 in
  while !matched < 0 && !i < n do
    let s = !i in
    let last = Array.unsafe_get lasts s in
    if last >= 0 then begin
      let delta = line - last in
      if delta = 1 || delta = -1 then begin
        let dir = Array.unsafe_get t.dir s in
        if dir = 0 || dir = delta then begin
          matched := s;
          mdelta := delta
        end
      end
    end;
    if last = -1 then begin
      if !free < 0 then free := s
    end
    else if Array.unsafe_get lrus s < Array.unsafe_get lrus !oldest then
      oldest := s;
    incr i
  done;
  if !matched >= 0 then begin
    let s = !matched in
    let delta = !mdelta in
    let hits = Array.unsafe_get t.hits s + 1 in
    Array.unsafe_set t.last s line;
    Array.unsafe_set t.dir s delta;
    Array.unsafe_set t.hits s hits;
    Array.unsafe_set t.lru s t.clock;
    if hits >= t.confirm then begin
      for i = 0 to t.degree - 1 do
        Array.unsafe_set buf i (line + (delta * (i + 1)))
      done;
      t.degree
    end
    else 0
  end
  else begin
    (* No match, so the scan saw every slot. *)
    let v = if !free >= 0 then !free else !oldest in
    Array.unsafe_set t.last v line;
    Array.unsafe_set t.dir v 0;
    Array.unsafe_set t.hits v 0;
    Array.unsafe_set t.lru v t.clock;
    0
  end

let observe t line =
  let buf = Array.make t.degree 0 in
  let n = observe_into t line buf in
  List.init n (fun i -> buf.(i))
