(* The micro-benchmark kernels: the mutator hot path (per op), the GC
   cycle (per cycle), the two places HCSGC spends host time, and the
   telemetry recorder's span push (per op).

   A session runs rounds: [mutate r] is the untimed phase before round
   [r], [step] the timed round.  Op kernels drive one primitive of the
   simulation stack (VM op -> barrier -> cache hierarchy -> prefetcher) in
   a GC-quiescent steady state, except [barrier-marking], which holds a
   bare collector in marking; a round is a batch of ops.  Cycle kernels
   drive the collector directly (no VM pump): the mutator phase allocates
   and replaces roots, and a round is one complete cycle (STW1 -> mark ->
   EC selection -> relocation -> sweep -> demotion).  Shared by
   bench/micro/main.exe and the allocation fences in test/test_gccycle.ml. *)

module Vm = Hcsgc_runtime.Vm
module Heap = Hcsgc_heap.Heap
module Heap_obj = Hcsgc_heap.Heap_obj
module Layout = Hcsgc_heap.Layout
module Machine = Hcsgc_memsim.Machine
module Prefetcher = Hcsgc_memsim.Prefetcher
module Collector = Hcsgc_core.Collector
module Config = Hcsgc_core.Config
module Vec = Hcsgc_util.Vec
module Recorder = Hcsgc_telemetry.Recorder

type unit_ = Op | Cycle

let unit_name = function Op -> "op" | Cycle -> "cycle"

type session = {
  mutate : int -> unit;
  step : unit -> unit;
  per_step : int;  (* ops or cycles one [step] performs *)
  col : Collector.t option;  (* whose simulated GC cycles to report *)
}

type t = {
  name : string;
  unit_ : unit_;
  warmup : int;  (* untimed rounds before measuring *)
  rounds : int;  (* measured rounds *)
  start : div:int -> session;  (* [div] divides the work per round *)
}

(* ---- cycle kernels ------------------------------------------------- *)

(* Drive one full GC cycle to completion. *)
let run_cycle col =
  Collector.start_cycle col;
  while Collector.in_cycle col do
    Collector.gc_work col ~budget:max_int
  done

let small_page = 16 * 1024

(* A collector over a 128-page heap of 16 KiB small pages, mutators on
   cores [0, cores - 1), GC on the last core, rooted by the returned
   vector. *)
let bare ?(cores = 2) ?(config = Config.zgc) () =
  let heap =
    Heap.create ~layout:(Layout.scaled ~small_page)
      ~max_bytes:(128 * small_page) ()
  in
  let roots : Heap_obj.t Vec.t = Vec.create () in
  let col =
    Collector.create ~heap ~machine:(Machine.create ~cores ()) ~config
      ~gc_core:(cores - 1)
      ~roots:(fun f -> Vec.iter f roots)
      ()
  in
  (col, roots)

let alloc_obj col ~core =
  let obj = Collector.alloc col ~core ~nrefs:1 ~nwords:6 in
  if obj == Heap_obj.none then failwith "bench/micro: heap exhausted";
  obj

(* Each returns the collector and the mutator phase for round [r]. *)

(* All garbage: every cycle marks only roots (none), selects every page
   into the EC and releases it without copying a single object.  The
   steady-state floor of a cycle — the 0-words fence kernel. *)
let churn ~div =
  let col, _roots = bare () in
  let mutate _r =
    for _ = 1 to 4_000 / div do
      ignore (alloc_obj col ~core:0)
    done
  in
  (col, mutate)

(* A large live set with a third replaced every round: pages hover below
   the 75% EC threshold, so each cycle relocates thousands of survivors. *)
let relocation_storm ~div =
  let col, roots = bare () in
  let n = 3_000 / div in
  for _ = 1 to n do
    Vec.push roots (alloc_obj col ~core:0)
  done;
  run_cycle col;
  let mutate r =
    let i = ref (r mod 3) in
    while !i < n do
      Vec.set roots !i (alloc_obj col ~core:0);
      i := !i + 3
    done
  in
  (col, mutate)

(* Cold live set under HOTNESS + a 64-page far tier: even rounds touch
   everything (far pages promote back to DRAM), odd rounds leave it cold
   (the sweep demotes the pages again) — every cycle runs the demotion
   scan. *)
let tiered_demotion ~div =
  let config =
    Config.make ~hotness:true ~cold_confidence:1.0 ~tier_capacity_pages:64 ()
  in
  let col, roots = bare ~config () in
  let n = 2_000 / div in
  for _ = 1 to n do
    Vec.push roots (alloc_obj col ~core:0)
  done;
  run_cycle col;
  let mutate r =
    if r land 1 = 0 then
      for i = 0 to n - 1 do
        ignore (Collector.use_handle col ~core:0 (Vec.get roots i))
      done;
    for _ = 1 to 1_500 / div do
      ignore (alloc_obj col ~core:0)
    done
  in
  (col, mutate)

(* Four mutator cores churning garbage and replacing slices of a shared
   live set: exercises the per-core allocation regions and the relocation
   machinery under interleaved multi-core traffic. *)
let multi_mutator ~div =
  let col, roots = bare ~cores:5 () in
  let muts = 4 in
  let per = 600 / div in
  for m = 0 to muts - 1 do
    for _ = 1 to per do
      Vec.push roots (alloc_obj col ~core:m)
    done
  done;
  run_cycle col;
  let n = muts * per in
  let mutate r =
    for m = 0 to muts - 1 do
      for _ = 1 to 700 / div do
        ignore (alloc_obj col ~core:m)
      done
    done;
    let i = ref (r mod 4) in
    while !i < n do
      Vec.set roots !i (alloc_obj col ~core:(!i mod muts));
      i := !i + 4
    done
  in
  (col, mutate)

let cycle_kernel name ~warmup ~rounds make =
  let start ~div =
    let col, mutate = make ~div in
    { mutate; step = (fun () -> run_cycle col); per_step = 1; col = Some col }
  in
  { name; unit_ = Cycle; warmup; rounds; start }

(* ---- op kernels ---------------------------------------------------- *)

(* [setup ()] returns the collector to report, if any, and [body lo hi],
   which runs ops [lo, hi); the op index runs on across rounds.  5 warm-up
   and 40 measured rounds of 50,000 ops: a 2M-op run after a 1/8-size
   warm-up. *)
let op_kernel name setup =
  let start ~div =
    let col, body = setup () in
    let per_step = max 1 (50_000 / div) in
    let next = ref 0 in
    let step () =
      body !next (!next + per_step);
      next := !next + per_step
    in
    { mutate = ignore; step; per_step; col }
  in
  { name; unit_ = Op; warmup = 5; rounds = 40; start }

(* A ZGC VM with [nobjs] rooted objects of two reference slots and six
   payload words, a reference ring through slot 0 so load_ref has
   non-null targets, and no cycle in flight; [body vm objs nobjs]. *)
let on_vm ?(nobjs = 64) body () =
  let vm = Vm.create ~config:Config.zgc ~max_heap:(64 * 1024 * 1024) () in
  let objs = Array.init nobjs (fun _ -> Vm.alloc vm ~nrefs:2 ~nwords:6) in
  Array.iter (Vm.add_root vm) objs;
  Array.iteri
    (fun i o -> Vm.store_ref vm o 0 (Some objs.((i + 1) mod nobjs)))
    objs;
  Vm.full_gc vm;
  (Some (Vm.collector vm), body vm objs nobjs)

(* A bare collector with [nobjs] rooted objects in a reference ring
   through slot 0, held in marking: STW1 has run (marking every root) and
   nothing ever calls [gc_work], so every barrier takes the marking
   branch on an already-marked object, the branch most simulated
   accesses inside a GC cycle window take.  The first pass over the ring
   heals its slots to the cycle's good colour; from then on [load_ref]
   is the fast path. *)
let on_marking ?(nobjs = 64) body () =
  let col, roots = bare () in
  let objs = Array.init nobjs (fun _ -> alloc_obj col ~core:0) in
  Array.iter (Vec.push roots) objs;
  Array.iteri
    (fun i o ->
      ignore
        (Collector.store_ref col ~core:0 o ~slot:0
           (Some objs.((i + 1) mod nobjs))))
    objs;
  run_cycle col;
  Collector.start_cycle col;
  (Some col, body col objs nobjs)

let on_machine body () = (None, body (Machine.create ~cores:1 ()))

let on_prefetcher body () = (None, body (Prefetcher.create ()))

(* A telemetry recorder at the default 65,536-span capacity: the ring
   fills during warm-up, so measured rounds overwrite the oldest span. *)
let on_recorder body () = (None, body (Recorder.create ()))

(* ---- the table ----------------------------------------------------- *)

let kernels =
  [
    op_kernel "load-word"
      (on_vm (fun vm objs n lo hi ->
           for i = lo to hi - 1 do
             ignore (Vm.load_word vm objs.(i mod n) (i land 3))
           done));
    op_kernel "store-word"
      (on_vm (fun vm objs n lo hi ->
           for i = lo to hi - 1 do
             Vm.store_word vm objs.(i mod n) (i land 3) i
           done));
    (* Interleaved payload loads and stores over a multi-page working
       set, through the full barrier + cache stack. *)
    op_kernel "mixed-load-store"
      (on_vm ~nobjs:256 (fun vm objs n lo hi ->
           for i = lo to hi - 1 do
             let o = objs.(i mod n) in
             if i land 1 = 0 then ignore (Vm.load_word vm o (i land 3))
             else Vm.store_word vm o (i land 3) i
           done));
    op_kernel "touch"
      (on_vm (fun vm objs n lo hi ->
           for i = lo to hi - 1 do
             Vm.touch vm objs.(i mod n)
           done));
    op_kernel "barrier-load-ref"
      (on_vm (fun vm objs n lo hi ->
           for i = lo to hi - 1 do
             ignore (Vm.load_ref vm objs.(i mod n) 0)
           done));
    (* Alternating ref loads and handle uses, as the collector sees them
       inside a cycle window. *)
    op_kernel "barrier-marking"
      (on_marking (fun col objs n lo hi ->
           for i = lo to hi - 1 do
             let o = objs.(i mod n) in
             if i land 1 = 0 then
               ignore (Collector.load_ref col ~core:0 o ~slot:0)
             else ignore (Collector.use_handle col ~core:0 o)
           done));
    (* Steady-state allocation of garbage through the full VM path (bump,
       arena slot, index registration, header store) and the GC cycles it
       drives, which free whole pages and recycle their slots. *)
    op_kernel "alloc"
      (on_vm (fun vm _objs _n lo hi ->
           for _ = lo to hi - 1 do
             ignore (Vm.alloc vm ~nrefs:1 ~nwords:6 : Heap_obj.t)
           done));
    op_kernel "machine-load-seq"
      (on_machine (fun m lo hi ->
           for i = lo to hi - 1 do
             ignore (Machine.load m ~core:0 ((i * 64) land 0x3FFFFF))
           done));
    (* A 4 KiB stride defeats the stream prefetcher: every access runs the
       full miss path. *)
    op_kernel "machine-load-stride"
      (on_machine (fun m lo hi ->
           for i = lo to hi - 1 do
             ignore (Machine.load m ~core:0 ((i * 4096) land 0xFFFFFF))
           done));
    (* Two interleaved sequences with a stride of +/-2 lines: no access
       extends a stream, so this measures only the no-match path (a new
       stream over the LRU slot).  The descending sequence starts at 2^40
       so that no op count reaches a negative line, which
       [Prefetcher.step] rejects. *)
    op_kernel "prefetcher-observe"
      (on_prefetcher (fun pf lo hi ->
           for i = lo to hi - 1 do
             let line = if i land 1 = 0 then i else (1 lsl 40) - i in
             ignore (Prefetcher.step pf line : int)
           done));
    (* Two interleaved +1/-1 streams, as mark/evacuation scans do: after
       the first accesses every one extends a confirmed stream. *)
    op_kernel "prefetcher-stream"
      (on_prefetcher (fun pf lo hi ->
           for i = lo to hi - 1 do
             let j = i lsr 1 in
             let line = if i land 1 = 0 then j else (1 lsl 40) - j in
             ignore (Prefetcher.step pf line : int)
           done));
    (* The serve request span: a named slice with four args from a
       preallocated list. *)
    op_kernel "recorder-push"
      (on_recorder (fun r ->
           let args =
             [ ("arrival", 1); ("wait", 2); ("stall", 3); ("latency", 4) ]
           in
           fun lo hi ->
             for i = lo to hi - 1 do
               Recorder.complete_span r (Recorder.Mutator 0) ~name:"req:get"
                 ~wall:i ~dur:3 ~args
             done));
    cycle_kernel "churn" ~warmup:30 ~rounds:300 churn;
    cycle_kernel "relocation-storm" ~warmup:15 ~rounds:150 relocation_storm;
    cycle_kernel "tiered-demotion" ~warmup:15 ~rounds:150 tiered_demotion;
    cycle_kernel "multi-mutator" ~warmup:10 ~rounds:100 multi_mutator;
  ]

let names = List.map (fun k -> k.name) kernels

(* [select "a,b"]: the named kernels in table order, or a message naming
   every unknown name and listing the valid ones. *)
let select spec =
  let wanted = List.map String.trim (String.split_on_char ',' spec) in
  match List.filter (fun w -> not (List.mem w names)) wanted with
  | [] -> Ok (List.filter (fun k -> List.mem k.name wanted) kernels)
  | unknown ->
      Error
        (Printf.sprintf "unknown kernel%s %s; valid: %s"
           (if List.length unknown > 1 then "s" else "")
           (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
           (String.concat ", " names))
