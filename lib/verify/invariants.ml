module Collector = Hcsgc_core.Collector
module Config = Hcsgc_core.Config
module Heap = Hcsgc_heap.Heap
module Heap_obj = Hcsgc_heap.Heap_obj
module Page = Hcsgc_heap.Page
module Addr = Hcsgc_heap.Addr
module Layout = Hcsgc_heap.Layout
module Fwd_table = Hcsgc_heap.Fwd_table
module Bitmap = Hcsgc_util.Bitmap

exception
  Violation of {
    edge : Collector.phase_edge;
    cycle : int;
    errors : string list;
  }

let () =
  Printexc.register_printer (function
    | Violation { edge; cycle; errors } ->
        Some
          (Format.asprintf
             "heap invariant violation at %s of cycle %d (%d errors):@.%a"
             (Collector.phase_edge_name edge)
             cycle (List.length errors)
             (Format.pp_print_list ~pp_sep:Format.pp_print_newline
                (fun fmt e -> Format.fprintf fmt "  - %s" e))
             errors)
    | _ -> None)

let max_errors = 25

(* Livemap/hotmap bit index -> byte offset factor; must match Page.bit_of,
   which hard-codes the 8-byte word. *)
let bit_bytes = 8

type ctx = {
  col : Collector.t;
  objs : Heap_obj.arena;
  edge : Collector.phase_edge;
  mutable errors : string list;  (* newest first *)
  mutable n_errors : int;  (* including suppressed ones *)
}

let err ctx fmt =
  Printf.ksprintf
    (fun m ->
      ctx.n_errors <- ctx.n_errors + 1;
      if ctx.n_errors <= max_errors then ctx.errors <- m :: ctx.errors)
    fmt

(* ------------------------------------------------------------------ *)
(* Colour / phase state machine                                        *)
(* ------------------------------------------------------------------ *)

let check_state ctx =
  let edge_name = Collector.phase_edge_name ctx.edge in
  let good = Collector.good_color ctx.col in
  (match (ctx.edge, good) with
  | (Collector.Stw1_done | Collector.Mark_done), (Addr.M0 | Addr.M1) -> ()
  | (Collector.Stw1_done | Collector.Mark_done), Addr.R ->
      err ctx "good colour is R at %s (expected a mark colour)" edge_name
  | (Collector.Stw3_done | Collector.Cycle_done), Addr.R -> ()
  (* Idle before the first cycle: the initial good colour is M1. *)
  | Collector.Cycle_done, Addr.M1 when Collector.cycle_number ctx.col = 0 -> ()
  | (Collector.Stw3_done | Collector.Cycle_done), c ->
      err ctx "good colour is %s at %s (expected R)" (Addr.color_to_string c)
        edge_name);
  match (ctx.edge, Collector.phase ctx.col) with
  | (Collector.Stw1_done | Collector.Mark_done), Collector.Marking -> ()
  | (Collector.Stw1_done | Collector.Mark_done), _ ->
      err ctx "phase is not Marking at %s" edge_name
  | Collector.Cycle_done, Collector.Idle -> ()
  | Collector.Cycle_done, _ -> err ctx "phase is not Idle at cycle-done"
  | Collector.Stw3_done, _ -> ()

(* ------------------------------------------------------------------ *)
(* Forwarding entries                                                  *)
(* ------------------------------------------------------------------ *)

(* A forwarding entry must name a real source slot and chase (read-only) to
   a registered object whose size fits where the entry says it came from.
   [allow_dead_chain] tolerates chains whose object died after relocation
   and whose destination page was then itself relocated and freed — legal
   on stale tables (nothing reachable routes through a dead object's
   chain; the reachable walk separately enforces that), but corruption on
   the in-flight cycle's tables, whose targets cannot have been freed. *)
let check_fwd_entry ?(allow_dead_chain = false) ctx (src : Page.t) ~offset
    ~new_addr =
  let objs = ctx.objs in
  if offset < 0 || offset >= src.Page.size then
    err ctx "page #%d forwarding entry at offset %d outside the page"
      src.Page.id offset
  else if offset mod bit_bytes <> 0 then
    err ctx "page #%d forwarding entry at unaligned offset %d" src.Page.id
      offset
  else
    match Oracle.resolve_ro ctx.col new_addr with
    | Error e when e.Oracle.dead_chain && allow_dead_chain -> ()
    | Error e ->
        err ctx "page #%d forwarding entry %d->0x%x dangles: %s" src.Page.id
          offset new_addr e.Oracle.msg
    | Ok obj ->
        if offset + (Heap_obj.size objs obj) > src.Page.size then
          err ctx
            "page #%d forwarding entry %d->0x%x: object #%d (%d bytes) could \
             not have fit its source slot"
            src.Page.id offset new_addr (Heap_obj.id objs obj)
            (Heap_obj.size objs obj)

(* ------------------------------------------------------------------ *)
(* Pages: structure, accounting, livemap, hotmap                       *)
(* ------------------------------------------------------------------ *)

(* An object registered at [offset] of [page] must agree with it. *)
let check_registered ctx (page : Page.t) ~offset ~ids_issued obj =
  let objs = ctx.objs in
  let id = Heap_obj.id objs obj and addr = Heap_obj.addr objs obj in
  if Heap_obj.page_id objs obj <> page.Page.id then
    err ctx "object #%d registered on page #%d but its page_id is %d" id
      page.Page.id (Heap_obj.page_id objs obj);
  if addr <> page.Page.start + offset then
    err ctx "object #%d registered at offset %d of page #%d but addr=0x%x" id
      offset page.Page.id addr;
  if offset mod bit_bytes <> 0 then
    err ctx "object #%d at unaligned offset %d on page #%d" id offset
      page.Page.id;
  if addr + Heap_obj.size objs obj > page.Page.start + page.Page.top then
    err ctx "object #%d extends past the bump pointer of page #%d" id
      page.Page.id;
  if id >= ids_issued then
    err ctx "object #%d on page #%d exceeds the issued-id watermark %d" id
      page.Page.id ids_issued

let check_pages ctx =
  let objs = ctx.objs in
  let heap = Collector.heap ctx.col in
  let lay = Heap.layout heap in
  let granule = Layout.granule lay in
  let ids_issued = Heap.obj_ids_issued heap in
  let used = ref 0 in
  let in_ec = ref 0 in
  Heap.iter_pages heap (fun page ->
      used := !used + page.Page.size;
      if page.Page.state = Page.In_ec then incr in_ec;
      if page.Page.start mod granule <> 0 then
        err ctx "page #%d start 0x%x is not granule-aligned" page.Page.id
          page.Page.start;
      (match Heap.page_of_addr heap page.Page.start with
      | Some p when p == page -> ()
      | _ -> err ctx "page #%d is not mapped at its own start" page.Page.id);
      (match Heap.page_of_addr heap (page.Page.start + page.Page.size - 1) with
      | Some p when p == page -> ()
      | _ -> err ctx "page #%d is not mapped at its last byte" page.Page.id);
      if page.Page.top < 0 || page.Page.top > page.Page.size then
        err ctx "page #%d bump pointer %d outside [0, %d]" page.Page.id
          page.Page.top page.Page.size;
      Page.iter_objects page (fun offset obj ->
          if Heap_obj.is_live objs obj then
            check_registered ctx page ~offset ~ids_issued obj
          else
            err ctx "page #%d registers freed handle 0x%x at offset %d"
              page.Page.id (Heap_obj.to_int obj) offset);
      (* Livemap vs object registration vs byte accounting. *)
      let live_bytes = ref 0 in
      let live_objects = ref 0 in
      let orphan_bits = ref 0 in
      Bitmap.iter_set page.Page.livemap (fun bit ->
          match Page.find_object page ~offset:(bit * bit_bytes) with
          | Some obj ->
              live_bytes := !live_bytes + (Heap_obj.size objs obj);
              incr live_objects
          | None ->
              incr orphan_bits;
              if Fwd_table.find page.Page.fwd ~offset:(bit * bit_bytes) = None
              then
                err ctx
                  "page #%d live bit %d has neither an object nor a \
                   forwarding entry"
                  page.Page.id bit);
      (match page.Page.state with
      | Page.Active ->
          if !orphan_bits > 0 then
            err ctx "active page #%d has %d live bits without objects"
              page.Page.id !orphan_bits;
          if !live_bytes <> page.Page.live_bytes then
            err ctx "page #%d live_bytes=%d but live objects sum to %d"
              page.Page.id page.Page.live_bytes !live_bytes;
          if !live_objects <> page.Page.live_objects then
            err ctx "page #%d live_objects=%d but livemap covers %d objects"
              page.Page.id page.Page.live_objects !live_objects;
          if Fwd_table.entries page.Page.fwd <> 0 then
            err ctx "active page #%d has %d forwarding entries" page.Page.id
              (Fwd_table.entries page.Page.fwd)
      | Page.In_ec ->
          (* The livemap is a frozen snapshot; evacuated objects leave it. *)
          if !live_bytes > page.Page.live_bytes then
            err ctx
              "in-ec page #%d: remaining live objects sum to %d, above the \
               frozen live_bytes=%d"
              page.Page.id !live_bytes page.Page.live_bytes
      | Page.Freed -> assert false (* iter_pages skips freed pages *));
      (* Hotmap: only sharp at mark end, where every hot flag was paired
         with a mark on the same (unmoved) object. *)
      if ctx.edge = Collector.Mark_done && page.Page.state = Page.Active then begin
        let hot_bytes = ref 0 in
        Bitmap.iter_set page.Page.hot_cur (fun bit ->
            if not (Bitmap.get page.Page.livemap bit) then
              err ctx "page #%d hot bit %d is not in the livemap at mark-done"
                page.Page.id bit
            else
              match Page.find_object page ~offset:(bit * bit_bytes) with
              | Some obj -> hot_bytes := !hot_bytes + (Heap_obj.size objs obj)
              | None -> ());
        if !hot_bytes <> page.Page.hot_bytes then
          err ctx "page #%d hot_bytes=%d but hot objects sum to %d"
            page.Page.id page.Page.hot_bytes !hot_bytes
      end;
      Fwd_table.iter page.Page.fwd (fun ~offset ~new_addr ->
          check_fwd_entry ctx page ~offset ~new_addr));
  if !used <> Heap.used_bytes heap then
    err ctx "heap reports used_bytes=%d but pages sum to %d"
      (Heap.used_bytes heap) !used;
  (* EC population bookkeeping. *)
  let pending = Collector.pending_relocation_pages ctx.col in
  if !in_ec <> pending then
    err ctx "%d pages are in-ec but the collector tracks %d pending" !in_ec
      pending;
  if ctx.edge = Collector.Mark_done && !in_ec > 0 then
    err ctx "%d in-ec pages survive at mark-done (relocation must drain first)"
      !in_ec;
  if
    ctx.edge = Collector.Cycle_done
    && (not (Collector.config ctx.col).Config.lazy_relocate)
    && !in_ec > 0
  then err ctx "%d in-ec pages remain at cycle-done without LAZYRELOCATE" !in_ec

(* ------------------------------------------------------------------ *)
(* Freed-but-unretired pages (live forwarding tables)                  *)
(* ------------------------------------------------------------------ *)

let check_stale_fwd_pages ctx =
  let heap = Collector.heap ctx.col in
  let granule = Layout.granule (Heap.layout heap) in
  Collector.iter_stale_fwd_pages ctx.col (fun page ->
      if page.Page.state <> Page.Freed then
        err ctx "page #%d awaits forwarding retirement but is not freed"
          page.Page.id;
      (* Stale pointers find the forwarding table through the page table,
         so the range must stay mapped to the page until retirement. *)
      let first = page.Page.start / granule in
      let last = (page.Page.start + page.Page.size - 1) / granule in
      for g = first to last do
        match Heap.page_of_addr heap (g * granule) with
        | Some p when p == page -> ()
        | Some p ->
            err ctx "freed page #%d granule %d remapped to page #%d before \
                     retirement"
              page.Page.id g p.Page.id
        | None ->
            err ctx "freed page #%d granule %d unmapped before retirement"
              page.Page.id g
      done;
      (* Release requires every live object to have been copied out. *)
      Bitmap.iter_set page.Page.livemap (fun bit ->
          if Fwd_table.find page.Page.fwd ~offset:(bit * bit_bytes) = None then
            err ctx "freed page #%d live bit %d has no forwarding entry"
              page.Page.id bit);
      Fwd_table.iter page.Page.fwd (fun ~offset ~new_addr ->
          check_fwd_entry ~allow_dead_chain:true ctx page ~offset ~new_addr))

(* ------------------------------------------------------------------ *)
(* The reachable object graph                                          *)
(* ------------------------------------------------------------------ *)

(* A good-coloured pointer must name the object's current address with no
   forwarding hop and no pending evacuation — the to-space invariant the
   load barrier's fast path relies on. *)
let check_direct ctx (obj : Heap_obj.t) slot addr =
  let objs = ctx.objs in
  let heap = Collector.heap ctx.col in
  match Heap.page_of_addr heap addr with
  | None ->
      err ctx "object #%d slot %d: good-coloured 0x%x maps to no page"
        (Heap_obj.id objs obj) slot addr;
      None
  | Some page -> (
      match Page.find_object page ~offset:(addr - page.Page.start) with
      | None ->
          err ctx
            "object #%d slot %d: good-coloured 0x%x does not resolve directly"
            (Heap_obj.id objs obj) slot addr;
          None
      | Some target ->
          if page.Page.state = Page.In_ec then
            err ctx
              "object #%d slot %d: good-coloured 0x%x points into in-ec page \
               #%d"
              (Heap_obj.id objs obj) slot addr page.Page.id;
          Some target)

let check_reachable ctx =
  let objs = ctx.objs in
  let heap = Collector.heap ctx.col in
  let good = Collector.good_color ctx.col in
  let watermark = Collector.mark_watermark ctx.col in
  let seen = Hashtbl.create 4096 in
  let stack = ref [] in
  let visit (obj : Heap_obj.t) =
    if not (Heap_obj.is_live objs obj) then
      err ctx "reachable handle 0x%x names a freed object" (Heap_obj.to_int obj)
    else if not (Hashtbl.mem seen (Heap_obj.id objs obj)) then begin
      Hashtbl.add seen (Heap_obj.id objs obj) ();
      stack := obj :: !stack;
      match Heap.page_of_addr heap (Heap_obj.addr objs obj) with
      | None ->
          err ctx "reachable object #%d sits at unmapped 0x%x"
            (Heap_obj.id objs obj) (Heap_obj.addr objs obj)
      | Some page -> (
          (match
             Page.find_object page
               ~offset:((Heap_obj.addr objs obj) - page.Page.start)
           with
          | Some o when o == obj -> ()
          | _ ->
              err ctx "reachable object #%d is not registered at its 0x%x"
                (Heap_obj.id objs obj) (Heap_obj.addr objs obj));
          if ctx.edge = Collector.Mark_done then begin
            if page.Page.state = Page.In_ec then
              err ctx "reachable object #%d is on in-ec page #%d at mark-done"
                (Heap_obj.id objs obj) page.Page.id;
            if
              (Heap_obj.id objs obj) < watermark
              && not (Page.is_marked_live page obj)
            then
              err ctx
                "reachable object #%d (born before STW1) is unmarked at \
                 mark-done"
                (Heap_obj.id objs obj)
          end)
    end
  in
  let roots = Collector.roots_list ctx.col in
  List.iter
    (fun (root : Heap_obj.t) ->
      if ctx.edge = Collector.Stw1_done then (
        match Heap.page_of_addr heap (Heap_obj.addr objs root) with
        | None -> () (* reported by visit *)
        | Some page ->
            if page.Page.state = Page.In_ec then
              err ctx "root #%d still on in-ec page #%d after STW1"
                (Heap_obj.id objs root) page.Page.id
            else if not (Page.is_marked_live page root) then
              err ctx "root #%d not marked by STW1 root seeding"
                (Heap_obj.id objs root));
      visit root)
    roots;
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | obj :: rest ->
        stack := rest;
        Oracle.iter_refs heap obj (fun slot ptr ->
            if not (Addr.is_null ptr) then
              match Addr.color ptr with
              | exception Invalid_argument _ ->
                  err ctx "object #%d slot %d holds malformed pointer 0x%x"
                    (Heap_obj.id objs obj) slot ptr
              | c ->
                  if c = good then (
                    match check_direct ctx obj slot (Addr.addr ptr) with
                    | Some target -> visit target
                    | None -> ())
                  else begin
                    if ctx.edge = Collector.Mark_done then
                      err ctx
                        "object #%d slot %d: colour %s survives mark-done \
                         (all reachable slots must be healed to %s)"
                        (Heap_obj.id objs obj) slot (Addr.color_to_string c)
                        (Addr.color_to_string good);
                    match Oracle.resolve_ro ctx.col (Addr.addr ptr) with
                    | Ok target -> visit target
                    | Error e ->
                        err ctx "object #%d slot %d: %s"
                          (Heap_obj.id objs obj) slot
                          e.Oracle.msg
                  end)
  done

(* ------------------------------------------------------------------ *)
(* Far-memory tier residency                                           *)
(* ------------------------------------------------------------------ *)

module Tier = Hcsgc_memsim.Tier

(* Page tier bits, the heap's O(1) far-byte total and the machine-level
   Tier residency set are three views of the same state; they must agree
   at every phase edge.  These checks run even when no Tier is attached
   (capacity 0): a page flagged Far then is itself corruption. *)
let check_tier ctx =
  let heap = Collector.heap ctx.col in
  let tier = Collector.tier ctx.col in
  let config = Collector.config ctx.col in
  let far_sum = ref 0 in
  Heap.iter_pages heap (fun page ->
      match page.Page.tier with
      | Page.Dram -> (
          match tier with
          | Some t when Tier.resident t page.Page.start ->
              err ctx "DRAM page #%d is resident in the far tier" page.Page.id
          | _ -> ())
      | Page.Far ->
          far_sum := !far_sum + page.Page.size;
          (match tier with
          | None ->
              err ctx "page #%d is Far but no tier is configured" page.Page.id
          | Some t ->
              if
                not
                  (Tier.resident t page.Page.start
                  && Tier.resident t (page.Page.start + page.Page.size - 1))
              then
                err ctx "far page #%d is not fully tier-resident" page.Page.id);
          if config.Config.tier_promote && page.Page.hot_bytes > 0 then
            err ctx "far page #%d holds %d hot bytes (promotion leak)"
              page.Page.id page.Page.hot_bytes);
  if !far_sum <> Heap.far_bytes heap then
    err ctx "heap reports far_bytes=%d but far pages sum to %d"
      (Heap.far_bytes heap) !far_sum;
  Collector.iter_stale_fwd_pages ctx.col (fun page ->
      if page.Page.tier <> Page.Dram then
        err ctx "freed page #%d still flagged far-resident" page.Page.id);
  match tier with
  | None -> ()
  | Some t ->
      if Tier.used_bytes t <> !far_sum then
        err ctx "tier tracks %d resident bytes but far pages sum to %d"
          (Tier.used_bytes t) !far_sum;
      if Tier.used_bytes t > Tier.capacity_bytes t then
        err ctx "tier residency %d exceeds capacity %d" (Tier.used_bytes t)
          (Tier.capacity_bytes t)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let check col ~edge =
  let ctx =
    { col; objs = Heap.objects (Collector.heap col); edge; errors = [];
      n_errors = 0 }
  in
  check_state ctx;
  check_pages ctx;
  check_stale_fwd_pages ctx;
  check_tier ctx;
  check_reachable ctx;
  if ctx.n_errors = 0 then Ok ()
  else begin
    let errors = List.rev ctx.errors in
    let errors =
      if ctx.n_errors > max_errors then
        errors
        @ [ Printf.sprintf "... and %d more errors suppressed"
              (ctx.n_errors - max_errors) ]
      else errors
    in
    Error errors
  end

let check_exn col ~edge =
  match check col ~edge with
  | Ok () -> ()
  | Error errors ->
      raise (Violation { edge; cycle = Collector.cycle_number col; errors })

let install ?(oracle = true) col =
  Collector.set_phase_hook col
    (Some
       (fun edge ->
         check_exn col ~edge;
         if oracle && edge = Collector.Mark_done then
           match Oracle.check col with
           | Ok _ -> ()
           | Error errors ->
               raise
                 (Violation
                    { edge; cycle = Collector.cycle_number col; errors })))
