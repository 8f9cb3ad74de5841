module Vec = Hcsgc_util.Vec

(* Per-cycle and per-sample history is kept in int vectors (cycle
   number = index + 1) rather than vectors of records/tuples: recording
   on the GC phase paths then allocates nothing — int array stores only.
   The vectors are pre-reserved so steady-state runs never even grow
   them. *)
type t = {
  rec_small : int Vec.t;  (* small pages selected for evacuation, per cycle *)
  mutable allocated : int;
  mutable relocated_mutator : int;
  mutable relocated_gc : int;
  mutable bytes_relocated : int;
  mutable pages_freed : int;
  mutable marked : int;
  mutable hot_flags : int;
  mutable stw : int;
  mutable barrier_fast : int;
  mutable barrier_slow : int;
  mutable pages_demoted : int;
  mutable pages_promoted : int;
  sample_wall : int Vec.t;
  sample_used : int Vec.t;
}

let reserved n =
  let v = Vec.make n 0 in
  Vec.clear v;
  v

let create () =
  {
    rec_small = reserved 1024;
    allocated = 0;
    relocated_mutator = 0;
    relocated_gc = 0;
    bytes_relocated = 0;
    pages_freed = 0;
    marked = 0;
    hot_flags = 0;
    stw = 0;
    barrier_fast = 0;
    barrier_slow = 0;
    pages_demoted = 0;
    pages_promoted = 0;
    sample_wall = reserved 4096;
    sample_used = reserved 4096;
  }

let on_cycle_start t =
  Vec.push t.rec_small 0;
  Vec.length t.rec_small

let on_ec_selected t ~small =
  let n = Vec.length t.rec_small in
  if n = 0 then invalid_arg "Gc_stats.on_ec_selected: no cycle in progress";
  Vec.set t.rec_small (n - 1) small

let on_alloc t ~bytes = t.allocated <- t.allocated + bytes

let on_relocate t ~by_mutator ~bytes =
  if by_mutator then t.relocated_mutator <- t.relocated_mutator + 1
  else t.relocated_gc <- t.relocated_gc + 1;
  t.bytes_relocated <- t.bytes_relocated + bytes

let on_page_freed t = t.pages_freed <- t.pages_freed + 1
let on_mark t = t.marked <- t.marked + 1
let on_hot_flag t = t.hot_flags <- t.hot_flags + 1
let on_stw t = t.stw <- t.stw + 1

let[@inline] on_barrier t ~slow =
  if slow then t.barrier_slow <- t.barrier_slow + 1
  else t.barrier_fast <- t.barrier_fast + 1

let on_heap_sample t ~wall ~used =
  Vec.push t.sample_wall wall;
  Vec.push t.sample_used used

let on_page_demoted t = t.pages_demoted <- t.pages_demoted + 1
let on_page_promoted t = t.pages_promoted <- t.pages_promoted + 1

let cycles t = Vec.length t.rec_small

let median_small_pages_in_ec t =
  if Vec.is_empty t.rec_small then 0.0
  else begin
    let xs = Vec.to_array t.rec_small in
    Array.sort compare xs;
    let n = Array.length xs in
    if n mod 2 = 1 then float_of_int xs.(n / 2)
    else float_of_int (xs.((n / 2) - 1) + xs.(n / 2)) /. 2.0
  end

let bytes_allocated t = t.allocated

let objects_relocated_by_mutator t = t.relocated_mutator
let objects_relocated_by_gc t = t.relocated_gc
let bytes_relocated t = t.bytes_relocated
let pages_freed t = t.pages_freed
let objects_marked t = t.marked
let hot_flags t = t.hot_flags
let stw_pauses t = t.stw
let barrier_fast_paths t = t.barrier_fast
let barrier_slow_paths t = t.barrier_slow
let pages_demoted t = t.pages_demoted
let pages_promoted t = t.pages_promoted

let heap_samples t =
  List.init (Vec.length t.sample_wall) (fun i ->
      (Vec.get t.sample_wall i, Vec.get t.sample_used i))

let pp fmt t =
  Format.fprintf fmt
    "gc{cycles=%d ec_median=%.1f reloc_mut=%d reloc_gc=%d freed=%d marked=%d \
     hot=%d stw=%d}"
    (cycles t)
    (median_small_pages_in_ec t)
    t.relocated_mutator t.relocated_gc t.pages_freed t.marked t.hot_flags t.stw
