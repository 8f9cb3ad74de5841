module Vm = Hcsgc_runtime.Vm
module Collector = Hcsgc_core.Collector
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module Heap = Hcsgc_heap.Heap
module Heap_obj = Hcsgc_heap.Heap_obj
module Page = Hcsgc_heap.Page
module Addr = Hcsgc_heap.Addr
module Layout = Hcsgc_heap.Layout
module Fwd_table = Hcsgc_heap.Fwd_table
module Rng = Hcsgc_util.Rng
module Invariants = Hcsgc_verify.Invariants

type action =
  | Alloc of { slot : int }
  | Link of { src_slot : int; field : int; dst_slot : int }
  | Unlink of { slot : int; field : int }
  | Write_word of { slot : int; word : int; value : int }
  | Read_path of { slot : int; fields : int list }
  | Drop of { slot : int }
  | Churn of { count : int }
  | Force_gc
  | Corrupt_color of { slot : int; field : int }
  | Corrupt_fwd of { slot : int }
  | Corrupt_tier

type failure = {
  action_index : int;
  action : action option;
  message : string;
}

type outcome = Pass of { gc_cycles : int } | Fail of failure

type counterexample = {
  seed : int;
  ops : int;
  slots : int;
  kept : int list;
  actions : action list;
  failure : failure;
}

exception Mismatch of string

let mismatchf fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt

(* Same scaled geometry and object shape as the historical model fuzz: a
   16 KB granule over a 1 MB heap gives enough pages for EC selection to
   bite at a few thousand operations. *)
let layout = Layout.scaled ~small_page:(16 * 1024)
let max_heap = 1024 * 1024
let nrefs_per_obj = 3
let nwords_per_obj = 2

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let generate ~seed ~ops ~slots =
  let rng = Rng.create seed in
  Array.init ops (fun _ ->
      match Rng.int rng 100 with
      | r when r < 25 -> Alloc { slot = Rng.int rng slots }
      | r when r < 40 ->
          let src_slot = Rng.int rng slots in
          let field = Rng.int rng nrefs_per_obj in
          let dst_slot = Rng.int rng slots in
          Link { src_slot; field; dst_slot }
      | r when r < 48 ->
          let slot = Rng.int rng slots in
          let field = Rng.int rng nrefs_per_obj in
          Unlink { slot; field }
      | r when r < 56 ->
          let slot = Rng.int rng slots in
          let word = 1 + Rng.int rng (nwords_per_obj - 1) in
          let value = Rng.int rng 1_000_000 in
          Write_word { slot; word; value }
      | r when r < 64 -> Drop { slot = Rng.int rng slots }
      | r when r < 72 -> Churn { count = 6 }
      | r when r < 74 -> Force_gc
      | _ ->
          let slot = Rng.int rng slots in
          let n = Rng.int rng 4 in
          let fields = ref [] in
          for _ = 1 to n do
            fields := Rng.int rng nrefs_per_obj :: !fields
          done;
          Read_path { slot; fields = !fields })

(* ------------------------------------------------------------------ *)
(* Execution against the mirror model                                  *)
(* ------------------------------------------------------------------ *)

type mirror = {
  table : int option array;
  refs : (int, int option array) Hashtbl.t;
  words : (int, int array) Hashtbl.t;
  mutable next_id : int;
}

(* [cur_m] is the mutator thread issuing the current action: the driver
   deals actions round-robin over the VM's mutators, so a multi-mutator
   fuzz exercises per-thread clocks, bump targets and private caches
   without changing the logical action sequence. *)
type st = {
  vm : Vm.t;
  root : Heap_obj.t;
  m : mirror;
  slots : int;
  mutable cur_m : int;
}

let norm n bound = ((n mod bound) + bound) mod bound

let load_slot st slot =
  match (Vm.load_ref ~m:st.cur_m st.vm st.root slot, st.m.table.(slot)) with
  | None, None -> None
  | Some obj, Some id -> Some (id, obj)
  | Some _, None -> mismatchf "table slot %d: managed set, mirror empty" slot
  | None, Some id -> mismatchf "table slot %d: mirror has #%d, managed empty" slot id

let check_words st id obj =
  let mwords = Hashtbl.find st.m.words id in
  for w = 0 to nwords_per_obj - 1 do
    let got = Vm.load_word ~m:st.cur_m st.vm obj w in
    if got <> mwords.(w) then
      mismatchf "object %d word %d: mirror %d, managed %d" id w mwords.(w) got
  done

let exec st = function
  | Alloc { slot } ->
      let slot = norm slot st.slots in
      let obj =
        Vm.alloc ~m:st.cur_m st.vm ~nrefs:nrefs_per_obj
          ~nwords:nwords_per_obj
      in
      let id = st.m.next_id in
      st.m.next_id <- id + 1;
      Vm.store_word ~m:st.cur_m st.vm obj 0 id;
      Vm.store_ref ~m:st.cur_m st.vm st.root slot (Some obj);
      st.m.table.(slot) <- Some id;
      Hashtbl.replace st.m.refs id (Array.make nrefs_per_obj None);
      Hashtbl.replace st.m.words id
        (Array.init nwords_per_obj (fun i -> if i = 0 then id else 0))
  | Link { src_slot; field; dst_slot } -> (
      let src_slot = norm src_slot st.slots in
      let dst_slot = norm dst_slot st.slots in
      let field = norm field nrefs_per_obj in
      match (load_slot st src_slot, load_slot st dst_slot) with
      | Some (ida, a), Some (idb, b) ->
          Vm.store_ref ~m:st.cur_m st.vm a field (Some b);
          (Hashtbl.find st.m.refs ida).(field) <- Some idb
      | _ -> ())
  | Unlink { slot; field } -> (
      let slot = norm slot st.slots in
      let field = norm field nrefs_per_obj in
      match load_slot st slot with
      | Some (id, obj) ->
          Vm.store_ref ~m:st.cur_m st.vm obj field None;
          (Hashtbl.find st.m.refs id).(field) <- None
      | None -> ())
  | Write_word { slot; word; value } -> (
      let slot = norm slot st.slots in
      let word = 1 + norm word (nwords_per_obj - 1) in
      match load_slot st slot with
      | Some (id, obj) ->
          Vm.store_word ~m:st.cur_m st.vm obj word value;
          (Hashtbl.find st.m.words id).(word) <- value
      | None -> ())
  | Read_path { slot; fields } -> (
      let slot = norm slot st.slots in
      match load_slot st slot with
      | None -> ()
      | Some (id0, obj0) ->
          let rec walk id obj = function
            | [] -> check_words st id obj
            | f :: rest -> (
                check_words st id obj;
                let f = norm f nrefs_per_obj in
                match
                  ( Vm.load_ref ~m:st.cur_m st.vm obj f,
                    (Hashtbl.find st.m.refs id).(f) )
                with
                | None, None -> ()
                | Some o', Some id' -> walk id' o' rest
                | Some _, None ->
                    mismatchf "object %d field %d: managed set, mirror null" id f
                | None, Some id' ->
                    mismatchf "object %d field %d: mirror has %d, managed null"
                      id f id')
          in
          walk id0 obj0 fields)
  | Drop { slot } ->
      let slot = norm slot st.slots in
      Vm.store_ref ~m:st.cur_m st.vm st.root slot None;
      st.m.table.(slot) <- None
  | Churn { count } ->
      for _ = 1 to max 0 count do
        ignore (Vm.alloc ~m:st.cur_m st.vm ~nrefs:0 ~nwords:12)
      done
  | Force_gc -> Vm.full_gc st.vm
  | Corrupt_color { slot; field } -> (
      let slot = norm slot st.slots in
      let field = norm field nrefs_per_obj in
      match Vm.load_ref ~m:st.cur_m st.vm st.root slot with
      | None -> ()
      | Some obj ->
          let heap = Vm.heap st.vm in
          let ptr = Heap.get_ref heap obj field in
          if not (Addr.is_null ptr) then
            (* Both mark bits set at once: no colour is ever encoded that
               way, so the sanitizer's walk must flag the slot. *)
            Heap.set_ref heap obj field
              (Addr.retint Addr.M0 ptr lor Addr.retint Addr.M1 ptr))
  | Corrupt_fwd { slot = _ } -> (
      (* Forge a dangling forwarding entry on the root table's page.  The
         offset is word-unaligned, so it can never collide with a real
         relocation, and nothing ever retires an active page's table: the
         damage persists to every subsequent phase edge. *)
      let heap = Vm.heap st.vm in
      let root = Heap_obj.addr (Heap.objects heap) st.root in
      match Heap.page_of_addr heap root with
      | None -> ()
      | Some page ->
          ignore (Fwd_table.claim page.Page.fwd ~offset:4 ~new_addr:0xdead0))
  | Corrupt_tier -> (
      (* Flip the root table's page tier bit behind the accounting: the
         page bit, the heap far-byte total and the machine tier residency
         set fall out of lock-step, so the sanitizer's far-sum round-trip
         must flag it at the next phase edge. *)
      let heap = Vm.heap st.vm in
      let root = Heap_obj.addr (Heap.objects heap) st.root in
      match Heap.page_of_addr heap root with
      | None -> ()
      | Some page ->
          page.Page.tier <-
            (if page.Page.tier = Page.Dram then Page.Far else Page.Dram))

let final_validation st =
  st.cur_m <- 0;
  let seen = Hashtbl.create 64 in
  let rec validate id obj =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      check_words st id obj;
      let mrefs = Hashtbl.find st.m.refs id in
      for f = 0 to nrefs_per_obj - 1 do
        match (Vm.load_ref ~m:st.cur_m st.vm obj f, mrefs.(f)) with
        | None, None -> ()
        | Some o', Some id' -> validate id' o'
        | Some _, None ->
            mismatchf "final: object %d field %d managed set, mirror null" id f
        | None, Some id' ->
            mismatchf "final: object %d field %d mirror has %d, managed null"
              id f id'
      done
    end
  in
  Array.iteri
    (fun s id_opt ->
      match (id_opt, Vm.load_ref ~m:st.cur_m st.vm st.root s) with
      | Some id, Some obj -> validate id obj
      | None, None -> ()
      | Some id, None -> mismatchf "final: table slot %d lost object %d" s id
      | None, Some _ -> mismatchf "final: table slot %d has a ghost object" s)
    st.m.table

let message_of_exn = function
  | Mismatch m -> "mirror mismatch: " ^ m
  | e -> Printexc.to_string e

let run ?(verify = true) ?(oracle = true) ?(mutators = 1) ~config ~slots
    actions =
  let vm = Vm.create ~layout ~mutators ~config ~max_heap () in
  if verify then Invariants.install ~oracle (Vm.collector vm);
  let root = Vm.alloc vm ~nrefs:slots ~nwords:0 in
  Vm.add_root vm root;
  let st =
    {
      vm;
      root;
      m =
        {
          table = Array.make slots None;
          refs = Hashtbl.create 256;
          words = Hashtbl.create 256;
          next_id = 0;
        };
      slots;
      cur_m = 0;
    }
  in
  let current = ref (-1, None) in
  try
    List.iteri
      (fun i a ->
        current := (i, Some a);
        st.cur_m <- i mod mutators;
        exec st a)
      actions;
    current := (List.length actions, None);
    final_validation st;
    Vm.finish vm;
    if verify then
      Invariants.check_exn (Vm.collector vm) ~edge:Collector.Cycle_done;
    Pass { gc_cycles = Gc_stats.cycles (Vm.gc_stats vm) }
  with e ->
    let action_index, action = !current in
    Fail { action_index; action; message = message_of_exn e }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let remove_block l start len =
  List.filteri (fun j _ -> j < start || j >= start + len) l

let shrink ?(budget = 400) ~fails indexed =
  let runs = ref 0 in
  let try_fails l =
    if !runs >= budget then false
    else begin
      incr runs;
      fails (List.map snd l)
    end
  in
  let current = ref indexed in
  let chunk = ref (max 1 (List.length indexed / 2)) in
  let finished = ref (indexed = []) in
  while not !finished do
    let removed = ref false in
    let i = ref 0 in
    while !i * !chunk < List.length !current do
      let cand = remove_block !current (!i * !chunk) !chunk in
      if List.length cand < List.length !current && try_fails cand then begin
        current := cand;
        removed := true
        (* the block at position i now holds fresh actions: retry it *)
      end
      else incr i
    done;
    if (!chunk = 1 && not !removed) || !runs >= budget then finished := true
    else chunk := max 1 (!chunk / 2)
  done;
  !current

let splice inject base =
  let inj =
    List.stable_sort (fun (a, (_ : action)) (b, _) -> compare a b) inject
  in
  let rec go i base inj =
    match inj with
    | (p, a) :: rest when p <= i || base = [] -> a :: go i base rest
    | _ -> (
        match base with [] -> [] | b :: tl -> b :: go (i + 1) tl inj)
  in
  go 0 base inj

let check_seed ?(verify = true) ?(oracle = true) ?(mutators = 1)
    ?(shrink_budget = 400) ?(inject = []) ~config ~slots ~ops ~seed () =
  let base = Array.to_list (generate ~seed ~ops ~slots) in
  let all = splice inject base in
  let indexed = List.mapi (fun i a -> (i, a)) all in
  let run = run ~verify ~oracle ~mutators ~config ~slots in
  match run all with
  | Pass _ -> None
  | Fail first ->
      let fails l = match run l with Fail _ -> true | Pass _ -> false in
      let minimal = shrink ~budget:shrink_budget ~fails indexed in
      let actions = List.map snd minimal in
      let failure =
        match run actions with
        | Fail f -> f
        | Pass _ -> first (* shrink raced the budget; keep the original *)
      in
      Some
        { seed; ops; slots; kept = List.map fst minimal; actions; failure }

let replay ?(verify = true) ?(oracle = true) ?(mutators = 1) ~config
    (cex : counterexample) =
  run ~verify ~oracle ~mutators ~config ~slots:cex.slots cex.actions

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_action fmt = function
  | Alloc { slot } -> Format.fprintf fmt "Alloc{slot=%d}" slot
  | Link { src_slot; field; dst_slot } ->
      Format.fprintf fmt "Link{src=%d;field=%d;dst=%d}" src_slot field dst_slot
  | Unlink { slot; field } ->
      Format.fprintf fmt "Unlink{slot=%d;field=%d}" slot field
  | Write_word { slot; word; value } ->
      Format.fprintf fmt "Write_word{slot=%d;word=%d;value=%d}" slot word value
  | Read_path { slot; fields } ->
      Format.fprintf fmt "Read_path{slot=%d;fields=[%s]}" slot
        (String.concat ";" (List.map string_of_int fields))
  | Drop { slot } -> Format.fprintf fmt "Drop{slot=%d}" slot
  | Churn { count } -> Format.fprintf fmt "Churn{count=%d}" count
  | Force_gc -> Format.fprintf fmt "Force_gc"
  | Corrupt_color { slot; field } ->
      Format.fprintf fmt "Corrupt_color{slot=%d;field=%d}" slot field
  | Corrupt_fwd { slot } -> Format.fprintf fmt "Corrupt_fwd{slot=%d}" slot
  | Corrupt_tier -> Format.fprintf fmt "Corrupt_tier"

let pp_failure fmt { action_index; action; message } =
  match action with
  | Some a ->
      Format.fprintf fmt "action %d (%a): %s" action_index pp_action a message
  | None -> Format.fprintf fmt "end-of-run validation: %s" message

let pp_counterexample fmt cex =
  Format.fprintf fmt "fuzz counterexample: seed=%d ops=%d slots=%d@." cex.seed
    cex.ops cex.slots;
  Format.fprintf fmt "kept indices: [%s]@."
    (String.concat ";" (List.map string_of_int cex.kept));
  Format.fprintf fmt "minimal actions (%d):@." (List.length cex.actions);
  List.iteri
    (fun i a -> Format.fprintf fmt "  %3d: %a@." i pp_action a)
    cex.actions;
  Format.fprintf fmt "failure: %a@." pp_failure cex.failure
