module Gc_log = Hcsgc_core.Gc_log

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

(* Spans live in a struct-of-arrays ring: one flat array per field, so a
   recorded span costs 15 words in place instead of a [span] record, an
   option box and a list of boxed pairs.  Slot [i]'s first
   [inline_args] args sit at [i * inline_args ..] of [sp_key]/[sp_val];
   any further ones are kept as a list in [sp_more] ([[]], an immediate,
   when unused).  The arrays start at [initial_slots] and double up to
   [span_cap]; the ring wraps only once it is at capacity, so before that
   slot [i] is the [i]th span recorded. *)
let inline_args = 4

let initial_slots = 256

type t = {
  span_cap : int;
  mutable sp_track : int array;  (* [Gc] = -1, [Mutator m] = m *)
  mutable sp_kind : int array;  (* [Slice] = 0, [Instant] = 1 *)
  mutable sp_name : string array;
  mutable sp_start : int array;
  mutable sp_stop : int array;
  mutable sp_nargs : int array;
  mutable sp_key : string array;
  mutable sp_val : int array;
  mutable sp_more : (string * int) list array;
  mutable span_next : int;
  mutable span_total : int;
  sample_buf : sample option array;
  mutable sample_next : int;
  mutable sample_total : int;
  open_stacks : (track, open_span list) Hashtbl.t;
}

(* Reallocate the span arrays at [n] slots, keeping the first [keep]. *)
let resize t n ~keep =
  let extend ?(width = 1) a fill =
    let b = Array.make (n * width) fill in
    Array.blit a 0 b 0 (keep * width);
    b
  in
  t.sp_track <- extend t.sp_track 0;
  t.sp_kind <- extend t.sp_kind 0;
  t.sp_name <- extend t.sp_name "";
  t.sp_start <- extend t.sp_start 0;
  t.sp_stop <- extend t.sp_stop 0;
  t.sp_nargs <- extend t.sp_nargs 0;
  t.sp_key <- extend ~width:inline_args t.sp_key "";
  t.sp_val <- extend ~width:inline_args t.sp_val 0;
  t.sp_more <- extend t.sp_more []

let reset_spans t =
  resize t (min initial_slots t.span_cap) ~keep:0;
  t.span_next <- 0;
  t.span_total <- 0

let create ?(span_capacity = 65536) ?(sample_capacity = 16384) () =
  if span_capacity <= 0 || sample_capacity <= 0 then
    invalid_arg "Recorder.create: capacities must be positive";
  let t =
    {
      span_cap = span_capacity;
      sp_track = [||];
      sp_kind = [||];
      sp_name = [||];
      sp_start = [||];
      sp_stop = [||];
      sp_nargs = [||];
      sp_key = [||];
      sp_val = [||];
      sp_more = [||];
      span_next = 0;
      span_total = 0;
      sample_buf = Array.make sample_capacity None;
      sample_next = 0;
      sample_total = 0;
      open_stacks = Hashtbl.create 8;
    }
  in
  reset_spans t;
  t

let track_code = function Gc -> -1 | Mutator m -> m

let kind_code = function Slice -> 0 | Instant -> 1

(* Store [args] then [more] as the args of [slot], from position [i]:
   inline while they fit, the rest as one list.  Returns the arg count. *)
let rec put_args t slot i args more =
  match args with
  | [] -> ( match more with [] -> i | _ -> put_args t slot i more [])
  | (k, v) :: rest when i < inline_args ->
      let j = (slot * inline_args) + i in
      t.sp_key.(j) <- k;
      t.sp_val.(j) <- v;
      put_args t slot (i + 1) rest more
  | _ ->
      let extra = match more with [] -> args | _ -> args @ more in
      t.sp_more.(slot) <- extra;
      i + List.length extra

(* Claim the next slot, growing the arrays while below capacity and
   overwriting the oldest span once at it. *)
let push_span t track kind ~name ~start ~stop args more =
  let slot = t.span_next in
  if slot = Array.length t.sp_start then
    resize t (min t.span_cap (2 * slot)) ~keep:slot;
  t.span_next <- (if slot + 1 = t.span_cap then 0 else slot + 1);
  t.span_total <- t.span_total + 1;
  t.sp_track.(slot) <- track_code track;
  t.sp_kind.(slot) <- kind_code kind;
  t.sp_name.(slot) <- name;
  t.sp_start.(slot) <- start;
  t.sp_stop.(slot) <- stop;
  t.sp_more.(slot) <- [];
  t.sp_nargs.(slot) <- put_args t slot 0 args more

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
   slice; milestones become instants.  Page_freed is skipped: a busy run
   frees thousands of pages and the event log already has them. *)
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
  | Gc_log.Page_freed _ -> ()
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

let track_of_code c = if c < 0 then Gc else Mutator c

let args_of t slot =
  let inline = min t.sp_nargs.(slot) inline_args in
  let rec go i =
    if i = inline then t.sp_more.(slot)
    else
      let j = (slot * inline_args) + i in
      (t.sp_key.(j), t.sp_val.(j)) :: go (i + 1)
  in
  go 0

let fold_spans ?(with_args = false) t ~init f =
  let live = min t.span_total t.span_cap in
  let first = if t.span_total <= t.span_cap then 0 else t.span_next in
  let acc = ref init in
  for i = 0 to live - 1 do
    let slot = first + i in
    let slot = if slot >= t.span_cap then slot - t.span_cap else slot in
    acc :=
      f !acc
        (track_of_code t.sp_track.(slot))
        (if t.sp_kind.(slot) = 0 then Slice else Instant)
        ~name:t.sp_name.(slot) ~start:t.sp_start.(slot) ~stop:t.sp_stop.(slot)
        ~args:(if with_args then args_of t slot else [])
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
