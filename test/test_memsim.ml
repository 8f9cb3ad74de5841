(* Tests for hcsgc.memsim: caches, prefetcher, hierarchy, machine. *)

module Cache = Hcsgc_memsim.Cache
module Prefetcher = Hcsgc_memsim.Prefetcher
module Hierarchy = Hcsgc_memsim.Hierarchy
module Machine = Hcsgc_memsim.Machine

let check = Alcotest.check
let case = Alcotest.test_case

let small_geom = { Cache.size_bytes = 1024; ways = 2; line_bytes = 64 }
(* 1024 / (2*64) = 8 sets *)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let cache_miss_then_hit () =
  let c = Cache.create small_geom in
  check Alcotest.bool "first access misses" false (Cache.access c 100);
  check Alcotest.bool "second access hits" true (Cache.access c 100)

let cache_line_of_addr () =
  let c = Cache.create small_geom in
  check Alcotest.int "line granularity" (Cache.line_of_addr c 0)
    (Cache.line_of_addr c 63);
  check Alcotest.bool "next line differs" true
    (Cache.line_of_addr c 63 <> Cache.line_of_addr c 64)

let cache_lru_eviction () =
  let c = Cache.create small_geom in
  (* Three lines mapping to the same set (stride = 8 lines, 8 sets). *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 8);
  (* touch 0 so 8 is LRU *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 16);
  (* evicts 8 *)
  check Alcotest.bool "0 survives" true (Cache.probe c 0);
  check Alcotest.bool "8 evicted" false (Cache.probe c 8);
  check Alcotest.bool "16 present" true (Cache.probe c 16)

let cache_probe_no_side_effect () =
  let c = Cache.create small_geom in
  check Alcotest.bool "probe misses" false (Cache.probe c 5);
  check Alcotest.bool "still misses on access" false (Cache.access c 5)

let cache_insert () =
  let c = Cache.create small_geom in
  Cache.insert c 77;
  check Alcotest.bool "insert fills" true (Cache.probe c 77)

let cache_invalidate () =
  let c = Cache.create small_geom in
  ignore (Cache.access c 1);
  Cache.invalidate_all c;
  check Alcotest.bool "emptied" false (Cache.probe c 1)

let cache_bad_geometry () =
  Alcotest.check_raises "non-pow2 sets"
    (Invalid_argument "Cache.create: geometry must yield a power-of-two set count")
    (fun () ->
      ignore (Cache.create { Cache.size_bytes = 960; ways = 2; line_bytes = 64 }))

let cache_associativity_capacity () =
  let c = Cache.create small_geom in
  (* Two ways per set: both stay resident. *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 8);
  check Alcotest.bool "way 1" true (Cache.probe c 0);
  check Alcotest.bool "way 2" true (Cache.probe c 8)

let prop_cache_hit_after_access =
  QCheck.Test.make ~name:"cache: access makes line resident" ~count:300
    QCheck.(small_list (int_bound 10_000))
    (fun lines ->
      let c = Cache.create { Cache.size_bytes = 64 * 1024; ways = 8; line_bytes = 64 } in
      List.iter (fun l -> ignore (Cache.access c l)) lines;
      match List.rev lines with
      | [] -> true
      | last :: _ -> Cache.probe c last)

(* A naive true-LRU reference: per set, the resident lines, most recently
   used first, at most [ways] of them. *)
module Lru_model = struct
  type t = { ways : int; lists : int list array }

  let create ~ways ~sets = { ways; lists = Array.make sets [] }

  let set t line = line land (Array.length t.lists - 1)

  let probe t line = List.mem line t.lists.(set t line)

  let access t line =
    let s = set t line in
    let hit = probe t line in
    let rest = List.filter (fun l -> l <> line) t.lists.(s) in
    t.lists.(s) <- List.filteri (fun i _ -> i < t.ways) (line :: rest);
    hit

  let invalidate_all t = Array.fill t.lists 0 (Array.length t.lists) []
end

(* Cache and the model in lockstep over random interleavings, on tiny
   geometries (1-16 ways, powers of two or not, and 1-8 sets) and twice as
   many distinct lines as the cache holds, so evictions and moves down the
   whole length of a set are frequent.  An op is (kind, raw): kind < 45 is
   [access], < 75 [insert], < 98 [probe], else [invalidate_all]; the line
   is [raw mod (2 * ways * sets)]. *)
let prop_cache_matches_lru_model =
  QCheck.Test.make ~name:"cache: access/insert/probe = true-LRU model"
    ~count:500
    QCheck.(
      triple (int_range 1 16) (int_range 0 3)
        (list_of_size Gen.(0 -- 300) (pair (int_bound 99) (int_bound 1023))))
    (fun (ways, log_sets, ops) ->
      let sets = 1 lsl log_sets in
      let c =
        Cache.create
          { Cache.size_bytes = sets * ways * 64; ways; line_bytes = 64 }
      in
      let m = Lru_model.create ~ways ~sets in
      List.for_all
        (fun (kind, raw) ->
          let line = raw mod (2 * ways * sets) in
          if kind < 45 then Cache.access c line = Lru_model.access m line
          else if kind < 75 then begin
            Cache.insert c line;
            ignore (Lru_model.access m line : bool);
            true
          end
          else if kind < 98 then Cache.probe c line = Lru_model.probe m line
          else begin
            Cache.invalidate_all c;
            Lru_model.invalidate_all m;
            true
          end)
        ops)

(* ------------------------------------------------------------------ *)
(* Prefetcher                                                          *)
(* ------------------------------------------------------------------ *)

let prefetcher_detects_ascending_stream () =
  let pf = Prefetcher.create ~confirm:2 ~degree:4 () in
  ignore (Prefetcher.observe pf 100);
  ignore (Prefetcher.observe pf 101);
  let p = Prefetcher.observe pf 102 in
  check (Alcotest.list Alcotest.int) "prefetch next 4" [ 103; 104; 105; 106 ] p

let prefetcher_detects_descending_stream () =
  let pf = Prefetcher.create ~confirm:2 ~degree:2 () in
  ignore (Prefetcher.observe pf 100);
  ignore (Prefetcher.observe pf 99);
  let p = Prefetcher.observe pf 98 in
  check (Alcotest.list Alcotest.int) "prefetch down" [ 97; 96 ] p

let prefetcher_ignores_random () =
  let pf = Prefetcher.create () in
  let rng = Hcsgc_util.Rng.create 4 in
  let fired = ref 0 in
  for _ = 1 to 1_000 do
    let l = Hcsgc_util.Rng.int rng 1_000_000 in
    if Prefetcher.observe pf l <> [] then incr fired
  done;
  check Alcotest.bool "few spurious prefetches" true (!fired < 20)

let prefetcher_tracks_interleaved_streams () =
  let pf = Prefetcher.create ~confirm:2 ~degree:1 () in
  (* Two interleaved ascending streams. *)
  ignore (Prefetcher.observe pf 1000);
  ignore (Prefetcher.observe pf 5000);
  ignore (Prefetcher.observe pf 1001);
  ignore (Prefetcher.observe pf 5001);
  let a = Prefetcher.observe pf 1002 in
  let b = Prefetcher.observe pf 5002 in
  check (Alcotest.list Alcotest.int) "stream A" [ 1003 ] a;
  check (Alcotest.list Alcotest.int) "stream B" [ 5003 ] b

let prefetcher_reset () =
  let pf = Prefetcher.create ~confirm:2 ~degree:1 () in
  ignore (Prefetcher.observe pf 10);
  ignore (Prefetcher.observe pf 11);
  Prefetcher.reset pf;
  check (Alcotest.list Alcotest.int) "no stream after reset" []
    (Prefetcher.observe pf 12)

let prefetcher_needs_a_stream () =
  Alcotest.check_raises "no stream slots"
    (Invalid_argument "Prefetcher.create: need at least one stream")
    (fun () -> ignore (Prefetcher.create ~streams:0 ()))

let prefetcher_stream_limit () =
  (* Streams are bits of an OCaml int in the match buckets.  Open all 62
     slots (lines 1000 apart, so each is its own stream), then extend each
     twice: every slot, up to bit 61, must match and confirm. *)
  let pf = Prefetcher.create ~streams:62 ~confirm:2 ~degree:1 () in
  let base i = 1000 * (i + 1) in
  for i = 0 to 61 do
    ignore (Prefetcher.observe pf (base i))
  done;
  for i = 0 to 61 do
    ignore (Prefetcher.observe pf (base i + 1))
  done;
  for i = 0 to 61 do
    check (Alcotest.list Alcotest.int)
      (Printf.sprintf "stream %d confirmed" i)
      [ base i + 3 ]
      (Prefetcher.observe pf (base i + 2))
  done;
  Alcotest.check_raises "63 stream slots"
    (Invalid_argument "Prefetcher.create: at most 62 streams")
    (fun () -> ignore (Prefetcher.create ~streams:63 ()))

let prefetcher_rejects_negative_line () =
  let pf = Prefetcher.create () in
  Alcotest.check_raises "line -1"
    (Invalid_argument "Prefetcher.step: negative line")
    (fun () -> ignore (Prefetcher.observe pf (-1)))

let prefetcher_rejects_zero_degree () =
  Alcotest.check_raises "degree 0"
    (Invalid_argument "Prefetcher.create: degree must be positive")
    (fun () -> ignore (Prefetcher.create ~degree:0 ()));
  Alcotest.check_raises "degree -1"
    (Invalid_argument "Prefetcher.create: degree must be positive")
    (fun () -> ignore (Prefetcher.create ~degree:(-1) ()))

let prefetcher_rejects_zero_confirm () =
  Alcotest.check_raises "confirm 0"
    (Invalid_argument "Prefetcher.create: confirm must be positive")
    (fun () -> ignore (Prefetcher.create ~confirm:0 ()))

(* ------------------------------------------------------------------ *)
(* Hierarchy: the three levels as one core of a Machine sees them      *)
(* ------------------------------------------------------------------ *)

let no_prefetch_config =
  { Hierarchy.default_config with Hierarchy.prefetch = false }

let single_core cfg = Machine.create ~cfg ~cores:1 ()

let hierarchy_latencies () =
  let m = single_core no_prefetch_config in
  let lat1 = Machine.load m ~core:0 4096 in
  check Alcotest.int "cold load pays memory latency" 200 lat1;
  let lat2 = Machine.load m ~core:0 4096 in
  check Alcotest.int "warm load pays L1 latency" 4 lat2

let hierarchy_counters () =
  let m = single_core no_prefetch_config in
  ignore (Machine.load m ~core:0 0);
  ignore (Machine.load m ~core:0 0);
  ignore (Machine.store m ~core:0 64);
  let c = Machine.counters m in
  check Alcotest.int "loads" 2 c.Hierarchy.loads;
  check Alcotest.int "stores" 1 c.Hierarchy.stores;
  check Alcotest.int "l1 misses" 1 c.Hierarchy.l1_misses;
  check Alcotest.int "llc misses" 1 c.Hierarchy.llc_misses

let hierarchy_l2_hit () =
  let m = single_core no_prefetch_config in
  ignore (Machine.load m ~core:0 0);
  (* Evict from L1 (32KB, 8 ways, 64 sets): 8 conflicting lines at stride
     64*64 bytes. *)
  for i = 1 to 8 do
    ignore (Machine.load m ~core:0 (i * 64 * 64))
  done;
  let lat = Machine.load m ~core:0 0 in
  check Alcotest.int "L2 hit latency" 12 lat

let hierarchy_store_fills () =
  let m = single_core no_prefetch_config in
  let lat_store = Machine.store m ~core:0 128 in
  check Alcotest.int "store is write-buffered" 2 lat_store;
  check Alcotest.int "subsequent load hits L1" 4 (Machine.load m ~core:0 128)

let hierarchy_range () =
  let m = single_core no_prefetch_config in
  (* 3 lines: 200 + 200 + 200 *)
  let lat = Machine.load_range m ~core:0 0 192 in
  check Alcotest.int "range latency" 600 lat;
  let c = Machine.counters m in
  check Alcotest.int "range loads" 3 c.Hierarchy.loads

let hierarchy_range_partial_lines () =
  let m = single_core no_prefetch_config in
  (* 32 bytes starting at 48 spans two lines. *)
  ignore (Machine.load_range m ~core:0 48 32);
  let c = Machine.counters m in
  check Alcotest.int "two lines touched" 2 c.Hierarchy.loads

let hierarchy_prefetch_hides_stream () =
  let m = single_core Hierarchy.default_config in
  (* Sequential walk: after the stream is confirmed, loads hit L1. *)
  for i = 0 to 63 do
    ignore (Machine.load m ~core:0 (i * 64))
  done;
  let c = Machine.counters m in
  check Alcotest.bool "prefetches issued" true (c.Hierarchy.prefetches > 0);
  check Alcotest.bool "misses far below line count" true
    (c.Hierarchy.l1_misses < 16)

let hierarchy_flush () =
  let m = single_core no_prefetch_config in
  ignore (Machine.load m ~core:0 0);
  Machine.flush m;
  let c = Machine.counters m in
  check Alcotest.int "counters zero" 0 c.Hierarchy.loads;
  check Alcotest.int "cold again" 200 (Machine.load m ~core:0 0)

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)
(* ------------------------------------------------------------------ *)

let machine_private_l1 () =
  let m = Machine.create ~cfg:no_prefetch_config ~cores:2 () in
  ignore (Machine.load m ~core:0 0);
  (* Core 1 misses its private L1/L2 but hits the shared LLC. *)
  let lat = Machine.load m ~core:1 0 in
  check Alcotest.int "core 1 hits shared LLC" 40 lat

let machine_shared_llc_counts () =
  let m = Machine.create ~cfg:no_prefetch_config ~cores:2 () in
  ignore (Machine.load m ~core:0 0);
  ignore (Machine.load m ~core:1 0);
  let c = Machine.counters m in
  check Alcotest.int "machine-wide loads" 2 c.Hierarchy.loads;
  check Alcotest.int "two L1 misses" 2 c.Hierarchy.l1_misses;
  check Alcotest.int "one LLC miss" 1 c.Hierarchy.llc_misses

let machine_core_bounds () =
  let m = Machine.create ~cores:1 () in
  Alcotest.check_raises "bad core"
    (Invalid_argument "Machine: core index out of range") (fun () ->
      ignore (Machine.load m ~core:1 0))

let machine_line_size_mismatch () =
  let l2 = { Cache.size_bytes = 256 * 1024; ways = 8; line_bytes = 128 } in
  Alcotest.check_raises "mixed line sizes"
    (Invalid_argument "Machine.create: all levels must share a line size")
    (fun () ->
      ignore (single_core { Hierarchy.default_config with Hierarchy.l2 = l2 }))

let machine_flush () =
  let m = Machine.create ~cfg:no_prefetch_config ~cores:2 () in
  ignore (Machine.load m ~core:0 0);
  Machine.flush m;
  check Alcotest.int "cold after flush" 200 (Machine.load m ~core:0 0)

let suite =
  [
    ( "memsim.cache",
      [
        case "miss then hit" `Quick cache_miss_then_hit;
        case "line granularity" `Quick cache_line_of_addr;
        case "LRU eviction" `Quick cache_lru_eviction;
        case "probe has no side effect" `Quick cache_probe_no_side_effect;
        case "insert" `Quick cache_insert;
        case "invalidate" `Quick cache_invalidate;
        case "bad geometry rejected" `Quick cache_bad_geometry;
        case "associativity" `Quick cache_associativity_capacity;
        QCheck_alcotest.to_alcotest prop_cache_hit_after_access;
        QCheck_alcotest.to_alcotest prop_cache_matches_lru_model;
      ] );
    ( "memsim.prefetcher",
      [
        case "ascending stream" `Quick prefetcher_detects_ascending_stream;
        case "descending stream" `Quick prefetcher_detects_descending_stream;
        case "random traffic" `Quick prefetcher_ignores_random;
        case "interleaved streams" `Quick prefetcher_tracks_interleaved_streams;
        case "reset" `Quick prefetcher_reset;
        case "no streams rejected" `Quick prefetcher_needs_a_stream;
        case "too many streams rejected" `Quick prefetcher_stream_limit;
        case "negative line rejected" `Quick prefetcher_rejects_negative_line;
        case "degree below 1 rejected" `Quick prefetcher_rejects_zero_degree;
        case "confirm below 1 rejected" `Quick prefetcher_rejects_zero_confirm;
      ] );
    ( "memsim.hierarchy",
      [
        case "latency ladder" `Quick hierarchy_latencies;
        case "counters" `Quick hierarchy_counters;
        case "L2 hit" `Quick hierarchy_l2_hit;
        case "stores fill and are buffered" `Quick hierarchy_store_fills;
        case "range load" `Quick hierarchy_range;
        case "range spans lines" `Quick hierarchy_range_partial_lines;
        case "prefetch hides streams" `Quick hierarchy_prefetch_hides_stream;
        case "flush" `Quick hierarchy_flush;
      ] );
    ( "memsim.machine",
      [
        case "private L1, shared LLC" `Quick machine_private_l1;
        case "machine-wide counters" `Quick machine_shared_llc_counts;
        case "core bounds" `Quick machine_core_bounds;
        case "mixed line sizes rejected" `Quick machine_line_size_mismatch;
        case "flush" `Quick machine_flush;
      ] );
  ]
