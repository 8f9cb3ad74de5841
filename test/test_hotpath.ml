(* Tests for the allocation-free hot path: Vec.remove-based root removal,
   direct-loop range accesses, steady-state allocation bounds, the
   prefetcher's stride interface, and the whole machine against a
   reference hierarchy.  These guard the *equivalence* claims
   the optimisations rest on — every fast path must simulate the exact same
   numbers as the code it replaced. *)

module Vec = Hcsgc_util.Vec
module Alloc_meter = Hcsgc_util.Alloc_meter
module Prefetcher = Hcsgc_memsim.Prefetcher
module Machine = Hcsgc_memsim.Machine
module Hierarchy = Hcsgc_memsim.Hierarchy
module Cache = Hcsgc_memsim.Cache
module Tier = Hcsgc_memsim.Tier
module Lru_model = Test_memsim.Lru_model
module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Collector = Hcsgc_core.Collector
module Layout = Hcsgc_heap.Layout

let check = Alcotest.check
let case = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Satellite 1: Vm.remove_root / Vec.remove regression.               *)
(* ------------------------------------------------------------------ *)

let vec_remove_semantics () =
  (* Boxed elements so physical equality is meaningful. *)
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  let v = Vec.of_list [ a; b; c; b; d ] in
  Vec.remove v b;
  check (Alcotest.list Alcotest.int) "duplicates removed, order kept"
    [ 1; 3; 4 ]
    (List.map ( ! ) (Vec.to_list v));
  Vec.remove v (ref 99);
  check Alcotest.int "absent element is a no-op" 3 (Vec.length v);
  Vec.remove v a;
  Vec.remove v c;
  Vec.remove v d;
  check Alcotest.bool "empties cleanly" true (Vec.is_empty v);
  Vec.remove v a;
  check Alcotest.bool "remove from empty is a no-op" true (Vec.is_empty v)

let remove_root_preserves_order () =
  let vm =
    Vm.create
      ~layout:(Layout.scaled ~small_page:(16 * 1024))
      ~config:Config.zgc
      ~max_heap:(4 * 1024 * 1024)
      ()
  in
  let o1 = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.add_root vm o1;
  let o2 = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.add_root vm o2;
  let o3 = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.add_root vm o3;
  let o4 = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.add_root vm o4;
  let id o = Vm.Heap_obj.id (Hcsgc_heap.Heap.objects (Vm.heap vm)) o in
  let ids () = List.map id (Collector.roots_list (Vm.collector vm)) in
  let before = ids () in
  check (Alcotest.list Alcotest.int) "registration order"
    [ id o1; id o2; id o3; id o4 ]
    before;
  (* Removing a middle root must keep the survivors in their original
     relative order — root enumeration order feeds the mark queue, so a
     reordering here would silently change GC traversal determinism. *)
  Vm.remove_root vm o2;
  check (Alcotest.list Alcotest.int) "middle removal keeps order"
    [ id o1; id o3; id o4 ]
    (ids ());
  Vm.remove_root vm o4;
  check (Alcotest.list Alcotest.int) "tail removal keeps order"
    [ id o1; id o3 ]
    (ids ());
  (* Re-adding goes to the end, as before the Vec.remove rewrite. *)
  Vm.add_root vm o2;
  check (Alcotest.list Alcotest.int) "re-add appends"
    [ id o1; id o3; id o2 ]
    (ids ())

(* ------------------------------------------------------------------ *)
(* Satellite 2: direct-loop ranges cost exactly what per-line          *)
(* load/store cost.                                                    *)
(* ------------------------------------------------------------------ *)

let counters_testable =
  let pp fmt (c : Hierarchy.counters) =
    Format.fprintf fmt "{loads=%d;stores=%d;l1=%d;l2=%d;llc=%d;pf=%d}"
      c.Hierarchy.loads c.Hierarchy.stores c.Hierarchy.l1_misses
      c.Hierarchy.l2_misses c.Hierarchy.llc_misses c.Hierarchy.prefetches
  in
  Alcotest.testable pp ( = )

(* Drive a range call on one machine and the equivalent per-line loop on a
   fresh identical machine; every simulated number must match. *)
let machine_range_equals_per_line () =
  let a = Machine.create ~cores:2 () in
  let b = Machine.create ~cores:2 () in
  let lb = Machine.line_bytes a in
  let ranges =
    [ (0, 0, 64); (0, 40, 200); (1, 4096 - 8, 4096); (0, 65536, 16384);
      (1, 7, 1); (0, 123456, 777) ]
  in
  List.iter
    (fun (core, addr, bytes) ->
      let cost_a = Machine.load_range a ~core addr bytes in
      let cost_b = ref 0 in
      let first = addr / lb and last = (addr + bytes - 1) / lb in
      for line = first to last do
        cost_b := !cost_b + Machine.load b ~core (line * lb)
      done;
      check Alcotest.int
        (Printf.sprintf "load_range cost @0x%x+%d" addr bytes)
        !cost_b cost_a;
      let scost_a = Machine.store_range a ~core addr bytes in
      let scost_b = ref 0 in
      for line = first to last do
        scost_b := !scost_b + Machine.store b ~core (line * lb)
      done;
      check Alcotest.int
        (Printf.sprintf "store_range cost @0x%x+%d" addr bytes)
        !scost_b scost_a)
    ranges;
  check counters_testable "machine counters identical" (Machine.counters b)
    (Machine.counters a);
  check Alcotest.int "tlb misses identical" (Machine.tlb_misses b)
    (Machine.tlb_misses a)

(* ------------------------------------------------------------------ *)
(* Satellite 3: steady-state load/store ops allocate nothing.          *)
(* ------------------------------------------------------------------ *)

(* Median host words per op over [windows] back-to-back runs of
   [kernel ops].  The fences judge the median window, not the total: a
   real per-op allocation shows in every window, so the median still
   catches it, and one odd window cannot fail the gate. *)
let median_words_per_op ~windows ~ops kernel =
  let per_window = Array.make windows 0.0 in
  for w = 0 to windows - 1 do
    let before = Alloc_meter.words () in
    kernel ops;
    let after = Alloc_meter.words () in
    per_window.(w) <- (after -. before) /. float_of_int ops
  done;
  Array.sort Float.compare per_window;
  per_window.(windows / 2)

(* The op mix of the load/store fences: alternating payload loads and
   stores over [objs], each followed by a touch. *)
let load_store_touch vm objs ops =
  let n = Array.length objs in
  for i = 0 to ops - 1 do
    let o = Array.unsafe_get objs (i mod n) in
    if i land 1 = 0 then ignore (Vm.load_word vm o (i land 3) : int)
    else Vm.store_word vm o (i land 3) i;
    Vm.touch vm o
  done

let steady_state_allocation_free () =
  let vm =
    Vm.create
      ~layout:(Layout.scaled ~small_page:(16 * 1024))
      ~config:Config.zgc
      ~max_heap:(16 * 1024 * 1024)
      ()
  in
  let n = 64 in
  let objs =
    Array.init n (fun _ -> Vm.alloc vm ~nrefs:2 ~nwords:6)
  in
  Array.iter (fun o -> Vm.add_root vm o) objs;
  (* Materialise every payload so store_word never hits its lazy
     first-write allocation during measurement. *)
  Array.iter (fun o -> Vm.store_word vm o 0 1) objs;
  (* Drain any in-flight GC cycle; nothing below allocates simulated
     memory, so no new cycle can start mid-measurement. *)
  Vm.full_gc vm;
  let kernel = load_store_touch vm objs in
  kernel 100_000;
  (* warm *)
  let words_per_op = median_words_per_op ~windows:10 ~ops:10_000 kernel in
  (* The steady-state load/store path allocates 0 words per op.  The bound
     is 0.05 rather than exactly 0.0 to absorb (a) the boxed floats of the
     two meter calls themselves and (b) the rare GC-pump
     housekeeping tick (runs once per ~4k charged ops, and in dev builds —
     without cross-module inlining of the float accessors — may box a
     couple of words).  Per *op* that is < 0.001 words; any real per-op
     allocation (a closure, an option, a list cell) costs >= 2 words/op
     and fails this loudly. *)
  if words_per_op >= 0.05 then
    Alcotest.failf "steady-state ops allocate: %.4f words/op" words_per_op

(* Inside a cycle window every handle use takes the barrier's marking
   branch, and on an object that is marked already it must allocate
   nothing either.  The GC runs as the ops pump it, so a rooted array of
   256k null references (2 MiB) gives it enough tracing to stay in
   marking for the whole measurement — which is checked, not assumed. *)
let marking_allocation_free () =
  let vm =
    Vm.create
      ~layout:(Layout.scaled ~small_page:(16 * 1024))
      ~config:Config.zgc
      ~max_heap:(16 * 1024 * 1024)
      ()
  in
  let n = 64 in
  let objs = Array.init n (fun _ -> Vm.alloc vm ~nrefs:2 ~nwords:6) in
  Array.iter (fun o -> Vm.add_root vm o) objs;
  Array.iter (fun o -> Vm.store_word vm o 0 1) objs;
  Vm.add_root vm (Vm.alloc vm ~nrefs:(256 * 1024) ~nwords:0);
  Vm.full_gc vm;
  let col = Vm.collector vm in
  (* STW1 marks every root, so each op below finds its object marked. *)
  Collector.start_cycle col;
  let kernel = load_store_touch vm objs in
  kernel 10_000;
  let words_per_op = median_words_per_op ~windows:10 ~ops:2_000 kernel in
  check Alcotest.bool "the cycle is still marking" true
    (Collector.phase col = Collector.Marking);
  if words_per_op >= 0.05 then
    Alcotest.failf "marking-phase ops allocate: %.4f words/op" words_per_op

let load_ref_allocation_bounded () =
  let vm =
    Vm.create
      ~layout:(Layout.scaled ~small_page:(16 * 1024))
      ~config:Config.zgc
      ~max_heap:(16 * 1024 * 1024)
      ()
  in
  let n = 64 in
  let objs = Array.init n (fun _ -> Vm.alloc vm ~nrefs:2 ~nwords:2) in
  Array.iter (fun o -> Vm.add_root vm o) objs;
  for i = 0 to n - 1 do
    Vm.store_ref vm objs.(i) 0 (Some objs.((i + 1) mod n))
  done;
  Vm.full_gc vm;
  let kernel ops =
    for i = 0 to ops - 1 do
      ignore
        (Vm.load_ref vm (Array.unsafe_get objs (i mod n)) 0
          : Vm.Heap_obj.t option)
    done
  in
  kernel 100_000;
  let words_per_op = median_words_per_op ~windows:10 ~ops:10_000 kernel in
  (* load_ref returns [Some obj] — one 2-word block per op by design (the
     documented exception to the zero-allocation rule).  Guard that it is
     *only* that: 3 words/op would mean a new hidden allocation. *)
  if words_per_op >= 3.0 then
    Alcotest.failf "load_ref allocates beyond its Some: %.4f words/op"
      words_per_op

(* Steady-state allocation is host-allocation-free: an object is an arena
   slot, its words live in page storage, and [Vm.alloc] returns the bare
   handle.  What is left is page creation — the page record and its
   bitmaps, one page per ~29k of these 72-byte objects on the default
   2 MiB pages — which lands in few enough windows that the median is
   clean; the warm-up runs GC cycles first, so the index and storage
   pools are full and freed slots are being reused. *)
let alloc_allocation_free () =
  let vm = Vm.create ~config:Config.zgc ~max_heap:(64 * 1024 * 1024) () in
  let kernel ops =
    for _ = 1 to ops do
      ignore (Vm.alloc vm ~nrefs:1 ~nwords:6 : Vm.Heap_obj.t)
    done
  in
  kernel 600_000;
  check Alcotest.bool "warm-up ran GC cycles" true
    (Hcsgc_core.Gc_stats.cycles (Vm.gc_stats vm) >= 2);
  let words_per_op = median_words_per_op ~windows:20 ~ops:5_000 kernel in
  if words_per_op >= 0.05 then
    Alcotest.failf "steady-state alloc allocates: %.4f words/op" words_per_op

(* ------------------------------------------------------------------ *)
(* The prefetcher's stride matches the list semantics.                 *)
(* ------------------------------------------------------------------ *)

(* An independent reimplementation of the prefetcher's original
   list-returning semantics (closures, options and List.init — the
   allocating style the stride interface replaced), used as the model. *)
module Model = struct
  type stream = {
    mutable last : int;
    mutable dir : int;
    mutable hits : int;
    mutable lru : int;
  }

  type t = {
    streams : stream array;
    degree : int;
    confirm : int;
    mutable clock : int;
  }

  let create ~streams ~degree ~confirm =
    {
      streams =
        Array.init streams (fun _ ->
            { last = -1; dir = 0; hits = 0; lru = 0 });
      degree;
      confirm;
      clock = 0;
    }

  let observe t line =
    t.clock <- t.clock + 1;
    let matched = ref None in
    Array.iter
      (fun s ->
        if !matched = None && s.last >= 0 then begin
          let delta = line - s.last in
          if (delta = 1 || delta = -1) && (s.dir = 0 || s.dir = delta) then
            matched := Some (s, delta)
        end)
      t.streams;
    match !matched with
    | Some (s, delta) ->
        s.last <- line;
        s.dir <- delta;
        s.hits <- s.hits + 1;
        s.lru <- t.clock;
        if s.hits >= t.confirm then
          List.init t.degree (fun i -> line + (delta * (i + 1)))
        else []
    | None ->
        let v =
          match
            Array.to_list t.streams
            |> List.find_opt (fun s -> s.last = -1)
          with
          | Some free -> free
          | None ->
              Array.fold_left
                (fun best s -> if s.lru < best.lru then s else best)
                t.streams.(0) t.streams
        in
        v.last <- line;
        v.dir <- 0;
        v.hits <- 0;
        v.lru <- t.clock;
        []
end

(* An op is (kind, v): kind < 6 extends the previous line by +1, < 10 by
   -1 (so streams actually confirm); 10-12 step by +64, +63 and -63, into
   the same or a neighbouring match bucket (lines mod 64); 13 repeats the
   previous line, leaving two streams with the same [last]; 14 resets both
   prefetchers; anything else jumps to line [v]. *)
let prop_step_matches_model =
  QCheck.Test.make ~name:"prefetcher: step = list semantics"
    ~count:300
    QCheck.(
      quad (int_range 1 16) (int_range 1 6) (int_range 1 3)
        (list_of_size Gen.(0 -- 400) (pair (int_bound 19) (int_bound 255))))
    (fun (streams, degree, confirm, ops) ->
      let real = Prefetcher.create ~streams ~degree ~confirm () in
      let model = ref (Model.create ~streams ~degree ~confirm) in
      let last = ref 0 in
      List.for_all
        (fun (kind, v) ->
          if kind = 14 then begin
            Prefetcher.reset real;
            model := Model.create ~streams ~degree ~confirm;
            true
          end
          else begin
            let l = !last in
            let line =
              if kind < 6 then l + 1
              else if kind < 10 then max 0 (l - 1)
              else if kind = 10 then l + 64
              else if kind = 11 then l + 63
              else if kind = 12 then max 0 (l - 63)
              else if kind = 13 then l
              else v
            in
            last := line;
            let d = Prefetcher.step real line in
            let got =
              if d = 0 then []
              else List.init degree (fun i -> line + (d * (i + 1)))
            in
            (d = 0 || d = 1 || d = -1) && got = Model.observe !model line
          end)
        ops)

let observe_wrapper_matches_step () =
  (* The list wrapper and the stride path, driven in lockstep on twin
     prefetchers, step for step. *)
  let a = Prefetcher.create () in
  let b = Prefetcher.create () in
  let stream =
    List.concat
      [ List.init 10 (fun i -> 100 + i);
        List.init 10 (fun i -> 500 - i);
        [ 3; 77; 3; 900 ];
        List.init 6 (fun i -> 100 + (10 - 1) + i + 1) ]
  in
  List.iter
    (fun line ->
      let via_list = Prefetcher.observe a line in
      let d = Prefetcher.step b line in
      let via_step =
        if d = 0 then []
        else List.init (Prefetcher.degree b) (fun i -> line + (d * (i + 1)))
      in
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "line %d" line)
        via_list via_step)
    stream

(* ------------------------------------------------------------------ *)
(* The whole machine against a reference hierarchy.                    *)
(* ------------------------------------------------------------------ *)

(* A reference machine built from the naive models alone: a true-LRU list
   model per cache level and per dTLB, the list-semantics prefetcher
   [Model] above, and plain per-core counters.  It follows the machine's
   documented rules, written out directly: a load counts a miss at each
   level it misses and pays the first level that hits (a far-resident
   line pays [lat_far]); a store fills the same levels uncounted and pays
   [lat_store]; a dTLB miss adds [lat_tlb_miss]; then a confirmed stream
   fills each of its non-negative lines into LLC, L2 and L1.  A range is
   its lines one by one. *)
module Ref_machine = struct
  type core = {
    l1 : Lru_model.t;
    l2 : Lru_model.t;
    tlb : Lru_model.t option;
    mutable pf : Model.t;
    (* loads, stores, l1, l2, llc misses, prefetches, tlb misses, far *)
    n : int array;
  }

  type t = {
    cfg : Hierarchy.config;
    llc : Lru_model.t;
    cores : core array;
    tier : Tier.t option;
  }

  let level (g : Cache.geometry) =
    Lru_model.create ~ways:g.Cache.ways
      ~sets:(g.Cache.size_bytes / (g.Cache.ways * g.Cache.line_bytes))

  let pf () = Model.create ~streams:16 ~degree:4 ~confirm:2

  let create (cfg : Hierarchy.config) ~cores ~tier =
    let tlb () =
      if cfg.Hierarchy.tlb then
        Some
          (Lru_model.create ~ways:cfg.Hierarchy.tlb_ways
             ~sets:(cfg.Hierarchy.tlb_entries / cfg.Hierarchy.tlb_ways))
      else None
    in
    {
      cfg;
      llc = level cfg.Hierarchy.llc;
      cores =
        Array.init cores (fun _ ->
            {
              l1 = level cfg.Hierarchy.l1;
              l2 = level cfg.Hierarchy.l2;
              tlb = tlb ();
              pf = pf ();
              n = Array.make 8 0;
            });
      tier;
    }

  let lb t = t.cfg.Hierarchy.l1.Cache.line_bytes
  let bump c k = c.n.(k) <- c.n.(k) + 1

  let walk t c addr =
    match c.tlb with
    | Some tlb
      when not (Lru_model.access tlb (addr / t.cfg.Hierarchy.tlb_page_bytes))
      ->
        bump c 6;
        t.cfg.Hierarchy.lat_tlb_miss
    | _ -> 0

  let prefetch t c line =
    if t.cfg.Hierarchy.prefetch then
      List.iter
        (fun l ->
          if l >= 0 then begin
            List.iter
              (fun m -> ignore (Lru_model.access m l : bool))
              [ t.llc; c.l2; c.l1 ];
            bump c 5
          end)
        (Model.observe c.pf line)

  let load t ~core addr =
    let c = t.cores.(core) and line = addr / lb t in
    bump c 0;
    let w = walk t c addr in
    let cfg = t.cfg in
    let lat =
      if Lru_model.access c.l1 line then cfg.Hierarchy.lat_l1
      else begin
        bump c 2;
        if Lru_model.access c.l2 line then cfg.Hierarchy.lat_l2
        else begin
          bump c 3;
          if Lru_model.access t.llc line then cfg.Hierarchy.lat_llc
          else begin
            bump c 4;
            match t.tier with
            | Some tier when Tier.resident tier (line * lb t) ->
                bump c 7;
                Tier.lat_far tier
            | _ -> cfg.Hierarchy.lat_mem
          end
        end
      end
    in
    prefetch t c line;
    w + lat

  let store t ~core addr =
    let c = t.cores.(core) and line = addr / lb t in
    bump c 1;
    let w = walk t c addr in
    ignore
      (Lru_model.access c.l1 line
      || Lru_model.access c.l2 line
      || Lru_model.access t.llc line);
    prefetch t c line;
    w + t.cfg.Hierarchy.lat_store

  let range f t ~core addr bytes =
    let total = ref 0 in
    if bytes > 0 then
      for line = addr / lb t to (addr + bytes - 1) / lb t do
        total := !total + f t ~core (line * lb t)
      done;
    !total

  let reset_counters t = Array.iter (fun c -> Array.fill c.n 0 8 0) t.cores

  let flush t =
    Lru_model.invalidate_all t.llc;
    Array.iter
      (fun c ->
        Lru_model.invalidate_all c.l1;
        Lru_model.invalidate_all c.l2;
        Option.iter Lru_model.invalidate_all c.tlb;
        c.pf <- pf ())
      t.cores;
    reset_counters t

  let core_counters t ~core =
    let n = t.cores.(core).n in
    {
      Hierarchy.loads = n.(0);
      stores = n.(1);
      l1_misses = n.(2);
      l2_misses = n.(3);
      llc_misses = n.(4);
      prefetches = n.(5);
    }

  let total t k = Array.fold_left (fun acc c -> acc + c.n.(k)) 0 t.cores
end

(* Tiny levels, so that sets evict often: a 4-set L1, an 8-set L2, a
   16-set LLC (2, 4 and 8 ways) and a 4-set, 2-way dTLB. *)
let ref_cfg ~prefetch ~tlb =
  {
    Hierarchy.default_config with
    Hierarchy.l1 = { Cache.size_bytes = 512; ways = 2; line_bytes = 64 };
    l2 = { Cache.size_bytes = 2048; ways = 4; line_bytes = 64 };
    llc = { Cache.size_bytes = 8192; ways = 8; line_bytes = 64 };
    prefetch;
    tlb;
    tlb_entries = 8;
    tlb_ways = 2;
  }

(* An op is (kind, core, v, bytes) over a 32 KiB address span, so lines
   repeat, streams confirm and descending streams reach line 0: kind < 8
   loads, < 13 stores, < 15 is a load range and < 17 a store range of
   [bytes]; kind 17 resets the counters, 18 flushes.  Even [v] continues
   the core's previous address one line up or down (by [v land 2]), odd
   [v] jumps to [v]. *)
let prop_machine_matches_reference =
  QCheck.Test.make ~name:"machine: every latency and counter = reference"
    ~count:200
    QCheck.(
      pair
        (quad (int_range 1 3) bool bool (int_range (-0xFFFF) 0xFFFF))
        (list_of_size Gen.(0 -- 400)
           (quad (int_bound 18) (int_bound 2) (int_bound 32767)
              (int_bound 300))))
    (fun ((cores, prefetch, tlb, far_mask), ops) ->
      let cfg = ref_cfg ~prefetch ~tlb in
      (* A [far_mask] <= 0 runs without a tier; otherwise its bits name
         the far-resident 2 KiB granules of the span. *)
      let tier =
        if far_mask <= 0 then None
        else begin
          let granule = 2048 in
          let tier =
            Tier.create ~granule_bytes:granule ~capacity_bytes:(16 * granule)
              ~lat_far:333 ()
          in
          for g = 0 to 15 do
            if far_mask land (1 lsl g) <> 0 then
              assert (Tier.demote tier ~addr:(g * granule) ~bytes:granule)
          done;
          Some tier
        end
      in
      let m = Machine.create ~cfg ~cores () in
      Machine.set_tier m tier;
      let r = Ref_machine.create cfg ~cores ~tier in
      let prev = Array.make cores 0 in
      let counters_agree () =
        let per_core = List.init cores Fun.id in
        Machine.counters m
        = {
            Hierarchy.loads = Ref_machine.total r 0;
            stores = Ref_machine.total r 1;
            l1_misses = Ref_machine.total r 2;
            l2_misses = Ref_machine.total r 3;
            llc_misses = Ref_machine.total r 4;
            prefetches = Ref_machine.total r 5;
          }
        && Machine.tlb_misses m = Ref_machine.total r 6
        && Machine.far_loads m = Ref_machine.total r 7
        && List.for_all
             (fun core ->
               Machine.core_counters m ~core = Ref_machine.core_counters r ~core
               && Machine.core_tlb_misses m ~core = r.cores.(core).n.(6)
               && Machine.core_far_loads m ~core = r.cores.(core).n.(7))
             per_core
      in
      List.for_all
        (fun (kind, core, v, bytes) ->
          let core = core mod cores in
          let addr =
            if v land 1 = 1 then v
            else if v land 2 = 0 then prev.(core) + 64
            else max 0 (prev.(core) - 64)
          in
          prev.(core) <- addr;
          let same =
            if kind < 8 then
              Machine.load m ~core addr = Ref_machine.load r ~core addr
            else if kind < 13 then
              Machine.store m ~core addr = Ref_machine.store r ~core addr
            else if kind < 15 then
              Machine.load_range m ~core addr bytes
              = Ref_machine.range Ref_machine.load r ~core addr bytes
            else if kind < 17 then
              Machine.store_range m ~core addr bytes
              = Ref_machine.range Ref_machine.store r ~core addr bytes
            else if kind = 17 then begin
              Machine.reset_counters m;
              Ref_machine.reset_counters r;
              true
            end
            else begin
              Machine.flush m;
              Ref_machine.flush r;
              true
            end
          in
          same && counters_agree ())
        ops)

(* Machine-level fence: every access path on a machine with everything on
   (3 cores, prefetch, a dTLB and a far tier with resident granules)
   allocates 0 host words per op. *)
let machine_allocation_free () =
  let cfg = { Hierarchy.default_config with Hierarchy.tlb = true } in
  let m = Machine.create ~cfg ~cores:3 () in
  let granule = 64 * 1024 in
  let tier =
    Tier.create ~granule_bytes:granule ~capacity_bytes:(8 * granule)
      ~lat_far:300 ()
  in
  for g = 0 to 7 do
    assert (Tier.demote tier ~addr:(2 * g * granule) ~bytes:granule)
  done;
  Machine.set_tier m (Some tier);
  let span = 16 * granule in
  let kernel ops =
    for i = 0 to ops - 1 do
      let core = i mod 3 in
      (* Sequential, strided and random-looking addresses, so every level
         misses, streams confirm and far-resident lines are loaded. *)
      let addr = (i * (if i land 4 = 0 then 64 else 4160)) mod span in
      match i land 3 with
      | 0 -> ignore (Machine.load m ~core addr : int)
      | 1 -> ignore (Machine.store m ~core addr : int)
      | 2 -> ignore (Machine.load_range m ~core addr 200 : int)
      | _ -> ignore (Machine.store_range m ~core addr 200 : int)
    done
  in
  kernel 100_000;
  check Alcotest.bool "far loads happen" true (Machine.far_loads m > 0);
  check Alcotest.bool "dTLB walks happen" true (Machine.tlb_misses m > 0);
  let words_per_op = median_words_per_op ~windows:10 ~ops:10_000 kernel in
  if words_per_op >= 0.05 then
    Alcotest.failf "machine ops allocate: %.4f words/op" words_per_op

let suite =
  [
    ( "hotpath",
      [
        case "vec: remove semantics" `Quick vec_remove_semantics;
        case "vm: remove_root preserves root order" `Quick
          remove_root_preserves_order;
        case "machine: range = sum of per-line accesses" `Quick
          machine_range_equals_per_line;
        case "vm: steady-state load/store allocates 0 words/op" `Quick
          steady_state_allocation_free;
        case "vm: load_ref allocates only its Some" `Quick
          load_ref_allocation_bounded;
        case "vm: steady-state alloc allocates 0 words/op" `Quick
          alloc_allocation_free;
        QCheck_alcotest.to_alcotest prop_step_matches_model;
        case "prefetcher: observe wrapper = step" `Quick
          observe_wrapper_matches_step;
        QCheck_alcotest.to_alcotest prop_machine_matches_reference;
        case "machine: 3 cores, prefetch, dTLB and far tier allocate 0 words/op"
          `Quick machine_allocation_free;
        case "vm: load/store/touch during marking allocate 0 words/op" `Quick
          marking_allocation_free;
      ] );
  ]
