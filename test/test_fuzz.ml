(* Model-based fuzzing of the whole VM + collector stack.

   A random mutator maintains an OCaml-side mirror of a managed object
   graph: a root table whose slots point at objects with reference fields
   and payload words.  Every read goes through the managed heap (load
   barriers, relocation, forwarding) and is checked against the mirror, so
   any corruption introduced by marking, evacuation-candidate selection,
   relocation racing, forwarding-table retirement or address-range
   recycling surfaces as a mismatch.  The walk only follows managed
   pointers from the root table, so the rooting discipline is respected by
   construction. *)

module Vm = Hcsgc_runtime.Vm
module Collector = Hcsgc_core.Collector
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module Layout = Hcsgc_heap.Layout
module Heap_obj = Hcsgc_heap.Heap_obj
module Rng = Hcsgc_util.Rng
module Fuzz = Hcsgc_fuzz.Fuzz

let check = Alcotest.check
let case = Alcotest.test_case

let layout = Layout.scaled ~small_page:(16 * 1024)

(* Mirror model: object ids are allocation order; the table maps slot ->
   object id; each object mirrors its ref slots (ids) and payload words. *)
type mirror = {
  table : int option array;
  refs : (int, int option array) Hashtbl.t;
  words : (int, int array) Hashtbl.t;
}

let nrefs_per_obj = 3
let nwords_per_obj = 2

let run_fuzz ~config ~seed ~ops ~slots =
  (* ~verify:true puts the whole fuzz under the hcsgc.verify sanitizer:
     full-heap invariants plus the mark-sweep oracle at every phase edge. *)
  let vm = Vm.create ~layout ~verify:true ~config ~max_heap:(1024 * 1024) () in
  let table = Vm.alloc vm ~nrefs:slots ~nwords:0 in
  Vm.add_root vm table;
  let m =
    {
      table = Array.make slots None;
      refs = Hashtbl.create 256;
      words = Hashtbl.create 256;
    }
  in
  let rng = Rng.create seed in
  let next_id = ref 0 in
  (* Load the managed object for a table slot, validating its id. *)
  let load_slot slot =
    match (Vm.load_ref vm table slot, m.table.(slot)) with
    | None, None -> None
    | Some obj, Some id -> Some (id, obj)
    | Some _, None -> Alcotest.fail "managed slot set, mirror empty"
    | None, Some _ -> Alcotest.fail "mirror slot set, managed empty"
  in
  for _op = 1 to ops do
    match Rng.int rng 100 with
    | r when r < 25 ->
        (* Allocate a fresh object into a random slot. *)
        let slot = Rng.int rng slots in
        let obj = Vm.alloc vm ~nrefs:nrefs_per_obj ~nwords:nwords_per_obj in
        let id = !next_id in
        incr next_id;
        Vm.store_word vm obj 0 id;
        Vm.store_ref vm table slot (Some obj);
        m.table.(slot) <- Some id;
        Hashtbl.replace m.refs id (Array.make nrefs_per_obj None);
        Hashtbl.replace m.words id (Array.init nwords_per_obj (fun i -> if i = 0 then id else 0))
    | r when r < 40 -> (
        (* Link: a.field <- b, both reached through the table. *)
        let sa = Rng.int rng slots and sb = Rng.int rng slots in
        match (load_slot sa, load_slot sb) with
        | Some (ida, a), Some (idb, b) ->
            let f = Rng.int rng nrefs_per_obj in
            Vm.store_ref vm a f (Some b);
            (Hashtbl.find m.refs ida).(f) <- Some idb
        | _ -> ())
    | r when r < 48 -> (
        (* Unlink a field. *)
        let s = Rng.int rng slots in
        match load_slot s with
        | Some (id, obj) ->
            let f = Rng.int rng nrefs_per_obj in
            Vm.store_ref vm obj f None;
            (Hashtbl.find m.refs id).(f) <- None
        | None -> ())
    | r when r < 56 -> (
        (* Mutate a payload word. *)
        let s = Rng.int rng slots in
        match load_slot s with
        | Some (id, obj) ->
            let w = 1 + Rng.int rng (nwords_per_obj - 1) in
            let v = Rng.int rng 1_000_000 in
            Vm.store_word vm obj w v;
            (Hashtbl.find m.words id).(w) <- v
        | None -> ())
    | r when r < 64 ->
        (* Drop a slot (objects may become garbage). *)
        let s = Rng.int rng slots in
        Vm.store_ref vm table s None;
        m.table.(s) <- None
    | r when r < 72 ->
        (* Garbage churn to force GC cycles. *)
        for _ = 1 to 6 do
          ignore (Vm.alloc vm ~nrefs:0 ~nwords:12)
        done
    | _ -> (
        (* Validate: walk a short random managed path and compare with the
           mirror at every step. *)
        let s = Rng.int rng slots in
        match load_slot s with
        | None -> ()
        | Some (id0, obj0) ->
            let rec walk depth id obj =
              check Alcotest.int "id word" id (Vm.load_word vm obj 0);
              let mwords = Hashtbl.find m.words id in
              for w = 0 to nwords_per_obj - 1 do
                check Alcotest.int "payload word" mwords.(w)
                  (Vm.load_word vm obj w)
              done;
              if depth > 0 then begin
                let f = Rng.int rng nrefs_per_obj in
                match (Vm.load_ref vm obj f, (Hashtbl.find m.refs id).(f)) with
                | None, None -> ()
                | Some o', Some id' -> walk (depth - 1) id' o'
                | Some _, None -> Alcotest.fail "managed ref set, mirror null"
                | None, Some _ -> Alcotest.fail "mirror ref set, managed null"
              end
            in
            walk 3 id0 obj0)
  done;
  (* Final full validation of everything reachable from the table. *)
  let seen = Hashtbl.create 64 in
  let rec validate id obj =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      let mwords = Hashtbl.find m.words id in
      for w = 0 to nwords_per_obj - 1 do
        check Alcotest.int "final payload" mwords.(w) (Vm.load_word vm obj w)
      done;
      let mrefs = Hashtbl.find m.refs id in
      for f = 0 to nrefs_per_obj - 1 do
        match (Vm.load_ref vm obj f, mrefs.(f)) with
        | None, None -> ()
        | Some o', Some id' -> validate id' o'
        | _ -> Alcotest.fail "final ref mismatch"
      done
    end
  in
  Array.iteri
    (fun s id_opt ->
      match (id_opt, Vm.load_ref vm table s) with
      | Some id, Some obj -> validate id obj
      | None, None -> ()
      | _ -> Alcotest.fail "final table mismatch")
    m.table;
  Vm.finish vm;
  (* Structural invariants must hold after the storm. *)
  (match
     Hcsgc_verify.Invariants.check (Vm.collector vm)
       ~edge:Collector.Cycle_done
   with
  | Ok () -> ()
  | Error errors ->
      Alcotest.failf "heap invariants violated:\n%s"
        (String.concat "\n" errors));
  Gc_stats.cycles (Vm.gc_stats vm)

let fuzz_config id () =
  let cycles = run_fuzz ~config:(Config.of_id id) ~seed:(1000 + id) ~ops:15_000 ~slots:96 in
  (* The fuzz must actually exercise the collector. *)
  if cycles < 2 then Alcotest.failf "only %d GC cycles during fuzz" cycles

let fuzz_many_seeds () =
  (* Shorter runs across several seeds under the most aggressive config. *)
  for seed = 1 to 5 do
    ignore (run_fuzz ~config:(Config.of_id 18) ~seed ~ops:6_000 ~slots:64)
  done

let fuzz_relocation_counts () =
  (* Under relocate-all + lazy, the fuzz graph must survive heavy motion. *)
  let cycles = run_fuzz ~config:(Config.of_id 4) ~seed:77 ~ops:15_000 ~slots:96 in
  if cycles < 2 then Alcotest.failf "only %d GC cycles during fuzz" cycles

(* An LRU cache's pointer surgery as fuzz actions.  Table objects are
   nodes of doubly linked lists (field 1 = prev, field 2 = next).  Most
   steps splice a node's neighbours together, leaving the successor
   reachable only through the list, and move another node to the front of
   a list, so nearly every action is a Link or Unlink through the barriers
   on objects the collector may be marking or relocating.  Inserts,
   evictions and garbage keep cycles running.  A wide table keeps the
   root object's scan long enough for the surgery to race it: with the
   load barrier's marking removed, config 18 fails here. *)
let surgery_actions ~seed ~steps ~slots =
  let rng = Rng.create seed in
  let slot () = Rng.int rng slots in
  let prev = 1 and next = 2 in
  List.concat
    (List.init steps (fun _ ->
         match Rng.int rng 10 with
         | 0 | 1 | 2 -> [ Fuzz.Alloc { slot = slot () } ]
         | 3 -> [ Fuzz.Drop { slot = slot () }; Fuzz.Churn { count = 64 } ]
         | _ ->
             let node = slot () and p = slot () and n = slot () in
             let head = slot () in
             [
               Fuzz.Link { src_slot = p; field = next; dst_slot = n };
               Fuzz.Link { src_slot = n; field = prev; dst_slot = p };
               Fuzz.Drop { slot = n };
               Fuzz.Unlink { slot = node; field = prev };
               Fuzz.Link { src_slot = node; field = next; dst_slot = head };
               Fuzz.Link { src_slot = head; field = prev; dst_slot = node };
               Fuzz.Read_path { slot = head; fields = [ prev; next; next ] };
             ]))

(* Checked by Fuzz.run against its mirror model, with the invariant
   sweeps and the mark-sweep oracle at every phase edge, on one mutator
   and on three. *)
let pointer_surgery config_id () =
  let slots = 128 in
  let actions = surgery_actions ~seed:config_id ~steps:4_000 ~slots in
  List.iter
    (fun mutators ->
      match
        Fuzz.run ~mutators ~config:(Config.of_id config_id) ~slots actions
      with
      | Fuzz.Pass { gc_cycles } ->
          if gc_cycles < 4 then
            Alcotest.failf "%d mutator(s): only %d GC cycles" mutators
              gc_cycles
      | Fuzz.Fail f ->
          Alcotest.failf "%d mutator(s): %a" mutators Fuzz.pp_failure f)
    [ 1; 3 ]

let suite =
  [
    ( "fuzz.model",
      [
        case "config 0 (ZGC)" `Slow (fuzz_config 0);
        case "config 3 (relocate-all)" `Slow (fuzz_config 3);
        case "config 4 (ra+lazy)" `Slow (fuzz_config 4);
        case "config 7 (cc=1.0)" `Slow (fuzz_config 7);
        case "config 10 (cc+lazy)" `Slow (fuzz_config 10);
        case "config 13 (cp+cc)" `Slow (fuzz_config 13);
        case "config 16 (cp+cc+lazy)" `Slow (fuzz_config 16);
        case "config 17 (cp+ra)" `Slow (fuzz_config 17);
        case "config 18 (everything)" `Slow (fuzz_config 18);
        case "many seeds (cfg 18)" `Slow fuzz_many_seeds;
        case "relocating fuzz (cfg 4)" `Slow fuzz_relocation_counts;
        case "pointer surgery (cfg 4)" `Quick (pointer_surgery 4);
        case "pointer surgery (cfg 18)" `Quick (pointer_surgery 18);
      ] );
  ]
