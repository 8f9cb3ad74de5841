(* Tests for the heap sanitizer stack (hcsgc.verify + hcsgc.fuzz):

   - seeded-corruption smoke tests: damage a known-good heap in one specific
     way and assert the matching Invariants check — and only a check, not a
     crash — reports it;
   - the differential mark-sweep oracle on clean heaps, at the only edge
     where it is meaningful;
   - Fwd_table model-based properties (first claim wins, find/iter agree);
   - the fuzz harness: clean seeds pass, a spliced corruption is detected,
     and the shrinker isolates it to a minimal replayable sequence;
   - determinism: verification is read-only, so verified metrics are
     structurally identical to unverified ones, sequentially and across a
     domain pool. *)

module Vm = Hcsgc_runtime.Vm
module Collector = Hcsgc_core.Collector
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module Layout = Hcsgc_heap.Layout
module Heap = Hcsgc_heap.Heap
module Heap_obj = Hcsgc_heap.Heap_obj
module Page = Hcsgc_heap.Page
module Addr = Hcsgc_heap.Addr
module Fwd_table = Hcsgc_heap.Fwd_table
module Bitmap = Hcsgc_util.Bitmap
module Rng = Hcsgc_util.Rng
module Invariants = Hcsgc_verify.Invariants
module Oracle = Hcsgc_verify.Oracle
module Fuzz = Hcsgc_fuzz.Fuzz
module E = Hcsgc_experiments

let check = Alcotest.check
let case = Alcotest.test_case

let layout = Layout.scaled ~small_page:(16 * 1024)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* A ripe heap: live graph, at least one completed GC cycle, quiescent  *)
(* ------------------------------------------------------------------ *)

let obj_addr vm o = Heap_obj.addr (Heap.objects (Vm.heap vm)) o

let ripe_vm ?(config = Config.of_id 16) () =
  let vm = Vm.create ~layout ~config ~max_heap:(1024 * 1024) () in
  let keeper = Vm.alloc vm ~nrefs:32 ~nwords:0 in
  Vm.add_root vm keeper;
  for i = 0 to 31 do
    let o = Vm.alloc vm ~nrefs:1 ~nwords:2 in
    Vm.store_word vm o 1 i;
    Vm.store_ref vm keeper i (Some o)
  done;
  for _ = 1 to 20_000 do
    ignore (Vm.alloc vm ~nrefs:0 ~nwords:12)
  done;
  Vm.finish vm;
  if Gc_stats.cycles (Vm.gc_stats vm) < 1 then
    Alcotest.fail "workload too small: no GC cycle completed";
  (vm, keeper)

let expect_violation ~what ~needle vm =
  match Invariants.check (Vm.collector vm) ~edge:Collector.Cycle_done with
  | Ok () -> Alcotest.failf "%s: sanitizer reported a clean heap" what
  | Error errors ->
      check Alcotest.bool
        (Printf.sprintf "%s: some error mentions %S (got: %s)" what needle
           (String.concat " | " errors))
        true
        (List.exists (fun e -> contains ~needle e) errors)

let clean_heap_passes () =
  let vm, _ = ripe_vm () in
  match Invariants.check (Vm.collector vm) ~edge:Collector.Cycle_done with
  | Ok () -> ()
  | Error errors ->
      Alcotest.failf "clean heap flagged:\n%s" (String.concat "\n" errors)

let corrupt_color_detected () =
  let vm, keeper = ripe_vm () in
  let ptr = Heap.get_ref (Vm.heap vm) keeper 0 in
  check Alcotest.bool "slot 0 is populated" false (Addr.is_null ptr);
  (* Both mark bits at once is a colour no barrier ever writes. *)
  Heap.set_ref (Vm.heap vm) keeper 0
    (Addr.retint Addr.M0 ptr lor Addr.retint Addr.M1 ptr);
  expect_violation ~what:"colour-bit flip" ~needle:"malformed pointer" vm

let corrupt_fwd_detected () =
  let vm, keeper = ripe_vm () in
  let page =
    Option.get (Heap.page_of_addr (Vm.heap vm) (obj_addr vm keeper))
  in
  check Alcotest.bool "keeper's page is active" true
    (page.Page.state = Page.Active);
  ignore (Fwd_table.claim page.Page.fwd ~offset:4 ~new_addr:0xdead0);
  expect_violation ~what:"forged forwarding entry" ~needle:"forwarding" vm

let corrupt_livemap_detected () =
  let vm, keeper = ripe_vm () in
  let page =
    Option.get (Heap.page_of_addr (Vm.heap vm) (obj_addr vm keeper))
  in
  check Alcotest.bool "keeper survived the cycle marked" true
    (Page.is_marked_live page keeper);
  let offset = Page.offset_of_addr page (obj_addr vm keeper) in
  Bitmap.clear page.Page.livemap (offset / 8);
  expect_violation ~what:"cleared live bit" ~needle:"live objects sum" vm

let corrupt_live_objects_detected () =
  let vm, keeper = ripe_vm () in
  let page =
    Option.get (Heap.page_of_addr (Vm.heap vm) (obj_addr vm keeper))
  in
  page.Page.live_objects <- page.Page.live_objects + 1;
  expect_violation ~what:"skewed live_objects" ~needle:"livemap covers" vm

(* An object moved without re-registering: the page walk must report the
   offset the object was registered under, which only [Page.iter_objects]
   yielding stored offsets (not [addr - start]) can.  A small page's
   index has one entry per 16 bytes, so the offset comes from the entry's
   position and a parity bit: moves by one word and by two (into the next
   entry's span), and one that stays in the object's span and flips only
   the parity, must all be caught. *)
let corrupt_registration_detected () =
  let moved ~what delta_of =
    let vm, _ = ripe_vm () in
    let o = Vm.alloc vm ~nrefs:0 ~nwords:2 in
    let page = Option.get (Heap.page_of_addr (Vm.heap vm) (obj_addr vm o)) in
    let offset = Page.offset_of_addr page (obj_addr vm o) in
    let moved_to = offset + delta_of offset in
    Heap_obj.set_addr (Heap.objects (Vm.heap vm)) o (page.Page.start + moved_to);
    expect_violation ~what
      ~needle:
        (Printf.sprintf "registered at offset %d of page #%d but addr=0x%x"
           offset page.Page.id (obj_addr vm o))
      vm;
    (offset lsr 4, moved_to lsr 4)
  in
  ignore (moved ~what:"moved 8 bytes without re-registering" (fun _ -> 8));
  let span, span' =
    moved ~what:"moved 16 bytes without re-registering" (fun _ -> 16)
  in
  check Alcotest.bool "the 16-byte move leaves its index span" true
    (span <> span');
  let span, span' =
    moved ~what:"moved within its index span" (fun offset ->
        if offset land 8 = 0 then 8 else -8)
  in
  check Alcotest.bool "the parity move stays in its index span" true
    (span = span')

(* A freed page's range must stay mapped to it until its forwarding table
   is retired: recycling it early cuts stale pointers off from the table. *)
let early_recycle_detected () =
  let vm, _ = ripe_vm () in
  let queued = ref [] in
  Collector.iter_stale_fwd_pages (Vm.collector vm) (fun page ->
      queued := page :: !queued);
  match !queued with
  | [] -> Alcotest.fail "workload left no freed page awaiting retirement"
  | page :: _ ->
      Heap.recycle_range (Vm.heap vm) page;
      expect_violation ~what:"range recycled before retirement"
        ~needle:"unmapped before retirement" vm

let check_exn_raises () =
  let vm, keeper = ripe_vm () in
  let ptr = Heap.get_ref (Vm.heap vm) keeper 0 in
  Heap.set_ref (Vm.heap vm) keeper 0
    (Addr.retint Addr.M0 ptr lor Addr.retint Addr.M1 ptr);
  match Invariants.check_exn (Vm.collector vm) ~edge:Collector.Cycle_done with
  | () -> Alcotest.fail "check_exn did not raise"
  | exception Invariants.Violation { edge; errors; _ } ->
      check Alcotest.string "edge recorded" "cycle-done"
        (Collector.phase_edge_name edge);
      check Alcotest.bool "errors collected" true (errors <> [])

let verified_run_is_clean () =
  (* End-to-end: ~verify:true wires the sanitizer (and oracle) into every
     phase edge of a real run, and a healthy collector never trips it. *)
  let vm =
    Vm.create ~layout ~verify:true ~config:(Config.of_id 18)
      ~max_heap:(1024 * 1024) ()
  in
  let keeper = Vm.alloc vm ~nrefs:16 ~nwords:0 in
  Vm.add_root vm keeper;
  for i = 0 to 15 do
    let o = Vm.alloc vm ~nrefs:0 ~nwords:2 in
    Vm.store_ref vm keeper i (Some o)
  done;
  for _ = 1 to 20_000 do
    ignore (Vm.alloc vm ~nrefs:0 ~nwords:12)
  done;
  Vm.finish vm;
  check Alcotest.bool "cycles ran verified" true
    (Gc_stats.cycles (Vm.gc_stats vm) >= 1)

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let oracle_reachability_walk () =
  let vm, _ = ripe_vm () in
  let reached, errors = Oracle.reachable (Vm.collector vm) in
  check (Alcotest.list Alcotest.string) "walk resolves everything" [] errors;
  (* keeper + its 32 children at minimum. *)
  check Alcotest.bool "reaches the live graph" true
    (Hashtbl.length reached >= 33)

let oracle_diff_at_mark_done () =
  let vm = Vm.create ~layout ~config:Config.zgc ~max_heap:(1024 * 1024) () in
  let col = Vm.collector vm in
  let diffs = ref [] in
  Collector.set_phase_hook col
    (Some
       (fun edge ->
         if edge = Collector.Mark_done then
           match Oracle.check col with
           | Ok d -> diffs := d :: !diffs
           | Error es ->
               Alcotest.failf "oracle at mark-done: %s"
                 (String.concat "; " es)));
  let keeper = Vm.alloc vm ~nrefs:16 ~nwords:0 in
  Vm.add_root vm keeper;
  for i = 0 to 15 do
    let o = Vm.alloc vm ~nrefs:0 ~nwords:2 in
    Vm.store_ref vm keeper i (Some o)
  done;
  for round = 1 to 20_000 do
    ignore (Vm.alloc vm ~nrefs:0 ~nwords:12);
    (* Keep replacing children so marked-then-dropped objects produce
       floating garbage for the oracle to classify (never an error). *)
    if round mod 500 = 0 then begin
      let o = Vm.alloc vm ~nrefs:0 ~nwords:2 in
      Vm.store_ref vm keeper (round / 500 mod 16) (Some o)
    end
  done;
  Vm.finish vm;
  check Alcotest.bool "oracle ran at least once" true (!diffs <> []);
  List.iter
    (fun d ->
      check Alcotest.bool "live graph seen" true (d.Oracle.reachable_count > 0);
      check Alcotest.bool "floating garbage is non-negative" true
        (d.Oracle.floating >= 0))
    !diffs

(* ------------------------------------------------------------------ *)
(* Fwd_table properties                                                *)
(* ------------------------------------------------------------------ *)

let prop_fwd_first_claim_wins =
  QCheck.Test.make ~name:"fwd_table: first claim wins, find agrees" ~count:200
    QCheck.(small_list (pair (int_bound 1000) (int_bound 100_000)))
    (fun pairs ->
      let t = Fwd_table.create () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (offset, new_addr) ->
          match Fwd_table.claim t ~offset ~new_addr with
          | Fwd_table.Claimed ->
              if Hashtbl.mem model offset then false
              else begin
                Hashtbl.add model offset new_addr;
                true
              end
          | Fwd_table.Already a -> Hashtbl.find_opt model offset = Some a)
        pairs
      && Fwd_table.entries t = Hashtbl.length model
      && Hashtbl.fold
           (fun offset addr ok ->
             ok && Fwd_table.find t ~offset = Some addr)
           model true)

let prop_fwd_iter_is_exactly_entries =
  QCheck.Test.make ~name:"fwd_table: iter visits each entry once" ~count:200
    QCheck.(small_list (int_bound 500))
    (fun offsets ->
      let t = Fwd_table.create () in
      List.iter
        (fun offset -> ignore (Fwd_table.claim t ~offset ~new_addr:offset))
        offsets;
      let seen = Hashtbl.create 16 in
      Fwd_table.iter t (fun ~offset ~new_addr ->
          if Hashtbl.mem seen offset then Alcotest.fail "duplicate visit";
          Hashtbl.add seen offset new_addr);
      Hashtbl.length seen = Fwd_table.entries t
      && List.for_all
           (fun offset -> Hashtbl.find_opt seen offset = Some offset)
           offsets)

let prop_fwd_find_miss =
  QCheck.Test.make ~name:"fwd_table: find misses unclaimed offsets" ~count:200
    QCheck.(pair (small_list (int_bound 200)) (int_bound 400))
    (fun (offsets, probe) ->
      let t = Fwd_table.create () in
      List.iter
        (fun offset -> ignore (Fwd_table.claim t ~offset ~new_addr:1))
        offsets;
      List.mem probe offsets || Fwd_table.find t ~offset:probe = None)

(* ------------------------------------------------------------------ *)
(* Fuzz harness                                                        *)
(* ------------------------------------------------------------------ *)

let fuzz_clean_seeds_pass () =
  for seed = 1 to 3 do
    match
      Fuzz.check_seed ~config:(Config.of_id 18) ~slots:24 ~ops:1_500 ~seed ()
    with
    | None -> ()
    | Some cex ->
        Alcotest.failf "clean seed %d failed:@.%a" seed Fuzz.pp_counterexample
          cex
  done

let fuzz_generation_is_deterministic () =
  let a = Fuzz.generate ~seed:5 ~ops:500 ~slots:16 in
  let b = Fuzz.generate ~seed:5 ~ops:500 ~slots:16 in
  check Alcotest.bool "same seed, same actions" true (a = b);
  let c = Fuzz.generate ~seed:6 ~ops:500 ~slots:16 in
  check Alcotest.bool "different seed diverges" true (a <> c)

(* The counterexample text a failing fuzz run writes. *)
let pp_action_renders () =
  let render a = Format.asprintf "%a" Fuzz.pp_action a in
  check Alcotest.string "link" "Link{src=1;field=2;dst=3}"
    (render (Fuzz.Link { src_slot = 1; field = 2; dst_slot = 3 }));
  check Alcotest.string "read path" "Read_path{slot=4;fields=[1;2]}"
    (render (Fuzz.Read_path { slot = 4; fields = [ 1; 2 ] }))

let shrinker_isolates_seeded_corruption () =
  (* Splice one forged-forwarding corruption into an otherwise healthy
     800-action sequence; the harness must (a) fail, (b) keep the
     corruption through shrinking, and (c) end with a minimal sequence
     that still replays to a failure. *)
  match
    Fuzz.check_seed ~shrink_budget:200
      ~inject:[ (400, Fuzz.Corrupt_fwd { slot = 0 }) ]
      ~config:Config.zgc ~slots:16 ~ops:800 ~seed:11 ()
  with
  | None -> Alcotest.fail "seeded corruption was not detected"
  | Some cex ->
      check Alcotest.bool "corruption survives shrinking" true
        (List.exists
           (function Fuzz.Corrupt_fwd _ -> true | _ -> false)
           cex.Fuzz.actions);
      check Alcotest.bool
        (Printf.sprintf "minimal sequence is small (%d actions)"
           (List.length cex.Fuzz.actions))
        true
        (List.length cex.Fuzz.actions <= 10);
      (match Fuzz.replay ~config:Config.zgc cex with
      | Fuzz.Fail _ -> ()
      | Fuzz.Pass _ -> Alcotest.fail "minimal counterexample no longer fails")

let shrink_respects_predicate () =
  (* Pure shrinker unit test on a synthetic predicate: fails iff the list
     still holds allocations into both slot 3 and slot 7.  The minimum is
     exactly those two actions, at their original indices. *)
  let alloc s = Fuzz.Alloc { slot = s } in
  let indexed =
    List.mapi (fun i x -> (i, x)) (List.map alloc [ 1; 3; 5; 7; 9; 11; 13 ])
  in
  let fails l = List.mem (alloc 3) l && List.mem (alloc 7) l in
  let minimal = Fuzz.shrink ~fails indexed in
  check
    (Alcotest.list Alcotest.int)
    "minimal pair isolated" [ 1; 3 ]
    (List.map fst minimal);
  check Alcotest.bool "exactly the two culprits" true
    (List.map snd minimal = [ alloc 3; alloc 7 ])

(* ------------------------------------------------------------------ *)
(* Determinism: verification is observation only                       *)
(* ------------------------------------------------------------------ *)

let tiny_experiment () =
  {
    E.Runner.name = "verify-determinism";
    key = "test-verify-determinism;heap=1048576";
    make_vm =
      (fun config -> Vm.create ~layout ~config ~max_heap:(1024 * 1024) ());
    workload =
      (fun vm ~run ->
        let rng = Rng.create (run + 1) in
        let keeper = Vm.alloc vm ~nrefs:16 ~nwords:0 in
        Vm.add_root vm keeper;
        for i = 0 to 15 do
          let o = Vm.alloc vm ~nrefs:0 ~nwords:2 in
          Vm.store_word vm o 0 i;
          Vm.store_ref vm keeper i (Some o)
        done;
        for _ = 1 to 6_000 do
          match Rng.int rng 4 with
          | 0 -> ignore (Vm.alloc vm ~nrefs:0 ~nwords:8)
          | 1 -> (
              let s = Rng.int rng 16 in
              match Vm.load_ref vm keeper s with
              | Some o -> ignore (Vm.load_word vm o 0)
              | None -> ())
          | 2 ->
              let s = Rng.int rng 16 in
              let o = Vm.alloc vm ~nrefs:0 ~nwords:2 in
              Vm.store_ref vm keeper s (Some o)
          | _ -> Vm.work vm 5
        done);
  }

let verified_metrics_equal_unverified () =
  let exp = tiny_experiment () in
  List.iter
    (fun config_id ->
      let job = { E.Runner.exp; config_id; run = 0 } in
      let plain = E.Runner.execute job in
      let verified = E.Runner.execute ~verify:true job in
      check Alcotest.bool
        (Printf.sprintf "config %d metrics identical under verification"
           config_id)
        true (plain = verified))
    [ 0; 4; 16; 18 ]

let verified_sweep_deterministic_across_jobs () =
  let exp = tiny_experiment () in
  let sweep ~jobs =
    E.Runner.run_configs ~config_ids:[ 0; 16 ] ~runs:2 ~jobs ~verify:true exp
  in
  let sequential = sweep ~jobs:1 in
  let parallel = sweep ~jobs:4 in
  check Alcotest.bool "-j1 and -j4 verified sweeps identical" true
    (sequential = parallel)

let suite =
  [
    ( "verify.invariants",
      [
        case "clean heap passes" `Slow clean_heap_passes;
        case "colour-bit flip detected" `Slow corrupt_color_detected;
        case "forged forwarding detected" `Slow corrupt_fwd_detected;
        case "cleared live bit detected" `Slow corrupt_livemap_detected;
        case "skewed live_objects detected" `Slow corrupt_live_objects_detected;
        case "unregistered move detected" `Slow corrupt_registration_detected;
        case "early recycle detected" `Slow early_recycle_detected;
        case "check_exn raises Violation" `Slow check_exn_raises;
        case "verified run stays clean" `Slow verified_run_is_clean;
      ] );
    ( "verify.oracle",
      [
        case "reachability walk" `Slow oracle_reachability_walk;
        case "diff at mark-done" `Slow oracle_diff_at_mark_done;
      ] );
    ( "verify.fwd_table",
      [
        QCheck_alcotest.to_alcotest prop_fwd_first_claim_wins;
        QCheck_alcotest.to_alcotest prop_fwd_iter_is_exactly_entries;
        QCheck_alcotest.to_alcotest prop_fwd_find_miss;
      ] );
    ( "verify.fuzz",
      [
        case "clean seeds pass" `Slow fuzz_clean_seeds_pass;
        case "generation deterministic" `Quick fuzz_generation_is_deterministic;
        case "action printer" `Quick pp_action_renders;
        case "shrinker isolates corruption" `Slow
          shrinker_isolates_seeded_corruption;
        case "shrinker minimises a predicate" `Quick shrink_respects_predicate;
      ] );
    ( "verify.determinism",
      [
        case "verified = unverified metrics" `Slow
          verified_metrics_equal_unverified;
        case "verified sweep at -j1 = -j4" `Slow
          verified_sweep_deterministic_across_jobs;
      ] );
  ]
