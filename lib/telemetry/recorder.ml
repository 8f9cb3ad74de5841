module Gc_log = Hcsgc_core.Gc_log
module Vec = Hcsgc_util.Vec

type track = Mutator of int | Gc

type kind = Slice | Instant

type span = {
  track : track;
  kind : kind;
  name : string;
  start : int;
  stop : int;
  args : (string * int) list;
}

type sample = {
  wall : int;
  heap_used : int;
  hot_bytes : int;
  loads : int;
  stores : int;
  l1_misses : int;
  l2_misses : int;
  llc_misses : int;
  barrier_fast : int;
  barrier_slow : int;
  reloc_mutator : int;
  reloc_gc : int;
  reloc_bytes : int;
  far_loads : int;
}

type open_span = {
  o_name : string;
  o_start : int;
  o_args : (string * int) list;
}

(* Span names and arg keys are interned per recorder, so a ring slot holds
   only ints.  A lookup first compares the string by address with recently
   looked-up ones (the serve and GC call sites pass literals, so this
   nearly always hits), then by content in [codes].  A name is looked for
   among the last [recent] names; an arg key only in the cache entry of
   its position in the args list, since call sites pass the same keys in
   the same order. *)
let recent = 8

type interner = {
  codes : (string, int) Hashtbl.t;
  mutable strings : string Vec.t;  (* by code; readers get these back *)
  recent_str : string array;
  recent_code : int array;
  mutable recent_next : int;
}

(* Fills the address cache's empty entries: no caller can hold it. *)
let unseen = Bytes.to_string (Bytes.make 1 '\000')

let interner () =
  {
    codes = Hashtbl.create 64;
    strings = Vec.create ();
    recent_str = Array.make recent unseen;
    recent_code = Array.make recent 0;
    recent_next = 0;
  }

let reset_interner it =
  Hashtbl.reset it.codes;
  it.strings <- Vec.create ();
  Array.fill it.recent_str 0 recent unseen;
  it.recent_next <- 0

let by_content it s =
  match Hashtbl.find it.codes s with
  | code -> code
  | exception Not_found ->
      let code = Vec.length it.strings in
      Hashtbl.add it.codes s code;
      Vec.push it.strings s;
      code

let remember it i s code =
  it.recent_str.(i) <- s;
  it.recent_code.(i) <- code

let rec find_recent it s i =
  if i = recent then -1
  else if Array.unsafe_get it.recent_str i == s then
    Array.unsafe_get it.recent_code i
  else find_recent it s (i + 1)

let intern it s =
  let code = find_recent it s 0 in
  if code >= 0 then code
  else begin
    let code = by_content it s in
    let i = it.recent_next in
    remember it i s code;
    it.recent_next <- (if i + 1 = recent then 0 else i + 1);
    code
  end

(* [intern] for the [i]th arg key ([i < recent]). *)
let intern_at it i s =
  if Array.unsafe_get it.recent_str i == s then Array.unsafe_get it.recent_code i
  else begin
    let code = by_content it s in
    remember it i s code;
    code
  end

(* Spans live in one flat [int array] ring of [stride] ints per slot:

     start | stop | head | keys | v0 | v1 | v2 | v3

   [head] packs the kind (bit 0, [Instant] = 1), the inline arg count
   (bits 1-3), an overflow flag (bit 4), the track (bits 5-20: [Gc] = 0,
   [Mutator m] = m + 1) and the name's code (bits 21 up).  [keys] packs
   the codes of up to [inline_args] arg keys, [key_bits] each, whose
   values are [v0 ..].  Args that do not fit (past the fourth, or a key
   whose code needs more bits) are kept as a list in [overflow] under the
   slot, and leave it when the slot is overwritten.  A recorded span thus
   costs 8 words and writing it never calls [caml_modify].  The ring
   starts at [initial_slots] and doubles up to [span_cap]; it wraps only
   once it is at capacity, so before that slot [i] is the [i]th span
   recorded. *)
let stride = 8
let inline_args = 4
let initial_slots = 256
let key_bits = 15
let key_limit = 1 lsl key_bits
let overflow_bit = 16
let track_shift = 5
let track_limit = 1 lsl 16
let name_shift = 21

type t = {
  span_cap : int;
  mutable ring : int array;
  mutable span_next : int;
  mutable span_total : int;
  names : interner;
  keys : interner;
  overflow : (int, (string * int) list) Hashtbl.t;
  (* Interned strings evicted spans no longer use are dropped once the
     two tables together hold more than this. *)
  mutable intern_limit : int;
  sample_buf : sample option array;
  mutable sample_next : int;
  mutable sample_total : int;
  open_stacks : (track, open_span list) Hashtbl.t;
}

let live t = min t.span_total t.span_cap

(* Ring slot of the [i]th oldest surviving span. *)
let slot_of t i =
  let first = if t.span_total <= t.span_cap then 0 else t.span_next in
  let slot = first + i in
  if slot >= t.span_cap then slot - t.span_cap else slot

let interned t = Vec.length t.names.strings + Vec.length t.keys.strings

(* After a compaction, the next one waits for at least as many new
   strings as there are live spans, so its cost is amortised. *)
let set_intern_limit t = t.intern_limit <- 256 + max (2 * interned t) (live t)

let reset_spans t =
  t.ring <- Array.make (stride * min initial_slots t.span_cap) 0;
  t.span_next <- 0;
  t.span_total <- 0;
  reset_interner t.names;
  reset_interner t.keys;
  Hashtbl.reset t.overflow;
  set_intern_limit t

let create ?(span_capacity = 65536) ?(sample_capacity = 16384) () =
  if span_capacity <= 0 || sample_capacity <= 0 then
    invalid_arg "Recorder.create: capacities must be positive";
  let t =
    {
      span_cap = span_capacity;
      ring = [||];
      span_next = 0;
      span_total = 0;
      names = interner ();
      keys = interner ();
      overflow = Hashtbl.create 8;
      intern_limit = 0;
      sample_buf = Array.make sample_capacity None;
      sample_next = 0;
      sample_total = 0;
      open_stacks = Hashtbl.create 8;
    }
  in
  reset_spans t;
  t

let inline_count head = (head lsr 1) land 7

(* Re-intern only the names and keys the surviving spans use, renumbering
   their codes in place. *)
let compact t =
  let old_names = t.names.strings and old_keys = t.keys.strings in
  let name_map = Array.make (Vec.length old_names) (-1) in
  let key_map = Array.make (Vec.length old_keys) (-1) in
  reset_interner t.names;
  reset_interner t.keys;
  let renumber it old map code =
    if map.(code) < 0 then map.(code) <- by_content it (Vec.get old code);
    map.(code)
  in
  let ring = t.ring in
  for i = 0 to live t - 1 do
    let base = stride * slot_of t i in
    let head = ring.(base + 2) in
    let name = renumber t.names old_names name_map (head lsr name_shift) in
    ring.(base + 2) <-
      (head land ((1 lsl name_shift) - 1)) lor (name lsl name_shift);
    let keys = ring.(base + 3) in
    let fresh = ref 0 in
    for j = 0 to inline_count head - 1 do
      let code = (keys lsr (key_bits * j)) land (key_limit - 1) in
      fresh :=
        !fresh lor (renumber t.keys old_keys key_map code lsl (key_bits * j))
    done;
    ring.(base + 3) <- !fresh
  done;
  set_intern_limit t

let track_code = function Gc -> -1 | Mutator m -> m

let kind_code = function Slice -> 0 | Instant -> 1

let track_field = function
  | Gc -> 0
  | Mutator m ->
      if m < 0 || m + 1 >= track_limit then
        invalid_arg "Recorder: mutator id outside [0, 65535)";
      m + 1

(* Store [args] then [more] as the args of the slot at [base], from
   position [i]: inline while they fit, the rest as one [overflow] list.
   Returns the head's arg bits. *)
let rec put_args t slot base i args more =
  match args with
  | [] -> (
      match more with [] -> i lsl 1 | _ -> put_args t slot base i more [])
  | (k, v) :: rest ->
      let code = if i < inline_args then intern_at t.keys i k else key_limit in
      if code < key_limit then begin
        let ring = t.ring in
        ring.(base + 3) <- ring.(base + 3) lor (code lsl (key_bits * i));
        ring.(base + 4 + i) <- v;
        put_args t slot base (i + 1) rest more
      end
      else begin
        Hashtbl.replace t.overflow slot
          (match more with [] -> args | _ -> args @ more);
        (i lsl 1) lor overflow_bit
      end

(* Claim the next slot, growing the ring while below capacity and
   overwriting the oldest span once at it. *)
let push_span t track kind ~name ~start ~stop args more =
  let track = track_field track in
  if interned t > t.intern_limit then compact t;
  let slot = t.span_next in
  let base = stride * slot in
  if base = Array.length t.ring then begin
    let ring = Array.make (stride * min t.span_cap (2 * slot)) 0 in
    Array.blit t.ring 0 ring 0 base;
    t.ring <- ring
  end;
  let ring = t.ring in
  if ring.(base + 2) land overflow_bit <> 0 then Hashtbl.remove t.overflow slot;
  t.span_next <- (if slot + 1 = t.span_cap then 0 else slot + 1);
  t.span_total <- t.span_total + 1;
  let head =
    kind_code kind
    lor (track lsl track_shift)
    lor (intern t.names name lsl name_shift)
  in
  ring.(base) <- start;
  ring.(base + 1) <- stop;
  ring.(base + 3) <- 0;
  ring.(base + 2) <- head lor put_args t slot base 0 args more

let stack t track =
  match Hashtbl.find_opt t.open_stacks track with Some s -> s | None -> []

let begin_span t ?(args = []) track ~name ~wall =
  Hashtbl.replace t.open_stacks track
    ({ o_name = name; o_start = wall; o_args = args } :: stack t track)

let close t track ~args ~wall (o : open_span) =
  (* Clamp: a span opened speculatively (e.g. a concurrent phase entered at
     [pause_wall + pause_cost]) may be closed by an event stamped at the
     pre-pause wall; render it as zero-length rather than negative. *)
  push_span t track Slice ~name:o.o_name ~start:o.o_start
    ~stop:(max o.o_start wall) o.o_args args

let end_span t ?(args = []) track ~wall =
  match stack t track with
  | [] -> ()
  | o :: rest ->
      Hashtbl.replace t.open_stacks track rest;
      close t track ~args ~wall o

(* Close the topmost open span named [name] and anything nested above it;
   no-op when no such span is open. *)
let end_named t ?(args = []) track ~name ~wall =
  let st = stack t track in
  if List.exists (fun o -> o.o_name = name) st then begin
    let rec pop = function
      | [] -> []
      | o :: rest ->
          if o.o_name = name then begin
            close t track ~args ~wall o;
            rest
          end
          else begin
            close t track ~args:[] ~wall o;
            pop rest
          end
    in
    Hashtbl.replace t.open_stacks track (pop st)
  end

let complete_span t ?(args = []) track ~name ~wall ~dur =
  push_span t track Slice ~name ~start:wall ~stop:(wall + max 0 dur) args []

let instant t ?(args = []) track ~name ~wall =
  push_span t track Instant ~name ~start:wall ~stop:wall args []

let close_all t ~wall =
  let tracks =
    Hashtbl.fold (fun track _ acc -> track :: acc) t.open_stacks []
    |> List.sort (fun a b -> Int.compare (track_code a) (track_code b))
  in
  List.iter
    (fun track ->
      List.iter (close t track ~args:[] ~wall) (stack t track);
      Hashtbl.replace t.open_stacks track [])
    tracks

let sample t s =
  t.sample_buf.(t.sample_next) <- Some s;
  t.sample_next <- (t.sample_next + 1) mod Array.length t.sample_buf;
  t.sample_total <- t.sample_total + 1

(* GC events -> trace form.  Pauses are slices of their cost; the
   concurrent phases between them become nested slices under the cycle
   slice; milestones become instants. *)
let on_gc_event t (e : Gc_log.event) =
  match e with
  | Gc_log.Cycle_start { cycle; wall; heap_used } ->
      begin_span t Gc
        ~name:(Printf.sprintf "GC(%d)" cycle)
        ~args:[ ("heap_used_start", heap_used) ]
        ~wall
  | Gc_log.Pause { cycle = _; pause; cost; wall } -> (
      (match pause with
      | Gc_log.STW2 -> end_named t Gc ~name:"Concurrent Mark" ~wall
      | Gc_log.STW1 | Gc_log.STW3 -> ());
      complete_span t Gc ~name:(Gc_log.pause_name pause) ~wall ~dur:cost;
      match pause with
      | Gc_log.STW1 ->
          begin_span t Gc ~name:"Concurrent Mark" ~wall:(wall + cost)
      | Gc_log.STW3 ->
          begin_span t Gc ~name:"Concurrent Relocate" ~wall:(wall + cost)
      | Gc_log.STW2 -> ())
  | Gc_log.Mark_end { cycle = _; marked_objects; wall } ->
      instant t Gc ~name:"Concurrent Mark end"
        ~args:[ ("marked", marked_objects) ]
        ~wall
  | Gc_log.Ec_selected { cycle = _; small; medium; wall } ->
      instant t Gc ~name:"Relocation Set"
        ~args:[ ("small", small); ("medium", medium) ]
        ~wall
  | Gc_log.Relocation_deferred { cycle = _; pages; wall } ->
      instant t Gc ~name:"Relocation deferred" ~args:[ ("pages", pages) ] ~wall
  | Gc_log.Pages_demoted { cycle = _; pages; wall } ->
      instant t Gc ~name:"Pages demoted" ~args:[ ("pages", pages) ] ~wall
  | Gc_log.Cycle_end { cycle; wall; heap_used } ->
      end_named t Gc
        ~name:(Printf.sprintf "GC(%d)" cycle)
        ~args:[ ("heap_used_end", heap_used) ]
        ~wall

let samples t =
  let cap = Array.length t.sample_buf in
  let out = ref [] in
  for i = 0 to cap - 1 do
    match t.sample_buf.((t.sample_next + i) mod cap) with
    | Some x -> out := x :: !out
    | None -> ()
  done;
  List.rev !out

let track_of head =
  let field = (head lsr track_shift) land (track_limit - 1) in
  if field = 0 then Gc else Mutator (field - 1)

let args_of t slot base head =
  let more =
    if head land overflow_bit = 0 then [] else Hashtbl.find t.overflow slot
  in
  let keys = t.ring.(base + 3) in
  let rec go i =
    if i = inline_count head then more
    else
      let code = (keys lsr (key_bits * i)) land (key_limit - 1) in
      (Vec.get t.keys.strings code, t.ring.(base + 4 + i)) :: go (i + 1)
  in
  go 0

let fold_spans ?(with_args = false) t ~init f =
  let acc = ref init in
  for i = 0 to live t - 1 do
    let slot = slot_of t i in
    let base = stride * slot in
    let ring = t.ring in
    let head = ring.(base + 2) in
    acc :=
      f !acc (track_of head)
        (if head land 1 = 0 then Slice else Instant)
        ~name:(Vec.get t.names.strings (head lsr name_shift))
        ~start:ring.(base) ~stop:ring.(base + 1)
        ~args:(if with_args then args_of t slot base head else [])
  done;
  !acc

let spans t =
  fold_spans ~with_args:true t ~init:[]
    (fun acc track kind ~name ~start ~stop ~args ->
      { track; kind; name; start; stop; args } :: acc)
  |> List.rev

let dropped_spans t = max 0 (t.span_total - t.span_cap)

let dropped_samples t = max 0 (t.sample_total - Array.length t.sample_buf)

let tracks t =
  fold_spans t ~init:[] (fun acc track _ ~name:_ ~start:_ ~stop:_ ~args:_ ->
      if List.mem track acc then acc else track :: acc)
  |> List.sort (fun a b -> Int.compare (track_code a) (track_code b))

let clear t =
  reset_spans t;
  Array.fill t.sample_buf 0 (Array.length t.sample_buf) None;
  t.sample_next <- 0;
  t.sample_total <- 0;
  Hashtbl.reset t.open_stacks
