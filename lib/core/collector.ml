module Heap = Hcsgc_heap.Heap
module Heap_obj = Hcsgc_heap.Heap_obj
module Page = Hcsgc_heap.Page
module Addr = Hcsgc_heap.Addr
module Layout = Hcsgc_heap.Layout
module Fwd_table = Hcsgc_heap.Fwd_table
module Alloc_region = Hcsgc_heap.Alloc_region
module Machine = Hcsgc_memsim.Machine
module Tier = Hcsgc_memsim.Tier
module Vec = Hcsgc_util.Vec
module Bitmap = Hcsgc_util.Bitmap

type phase = Idle | Marking | Relocating

type phase_edge = Stw1_done | Mark_done | Stw3_done | Cycle_done

let phase_edge_name = function
  | Stw1_done -> "stw1-done"
  | Mark_done -> "mark-done"
  | Stw3_done -> "stw3-done"
  | Cycle_done -> "cycle-done"

type who = Mutator of int | Gc

exception Out_of_memory
exception Invalid_handle of string

let t_cap (config : Config.t) = config.Config.tier_capacity_pages

(* Bump-target identifiers for [target_bump]: an int code instead of
   get/set closures, so picking a target allocates nothing.  Mutator
   allocation and relocation targets are per core (the [core] argument
   selects the slot); GC and medium targets ignore it. *)
let tgt_mut_alloc = 0
let tgt_mut_relo = 1
let tgt_medium_alloc = 2
let tgt_medium_relo = 3
let tgt_gc_hot = 4
let tgt_gc_cold = 5

type t = {
  heap : Heap.t;
  objs : Heap_obj.arena;  (* [Heap.objects heap] *)
  machine : Machine.t;
  config : Config.t;
  (* Far-memory tier shared with the machine ([Machine.set_tier]); [None]
     unless [config.tier_capacity_pages > 0].  The collector owns all
     residency transitions: demotion of cold small pages at sweep,
     promotion on barrier access, and removal when a page is freed. *)
  tier : Tier.t option;
  gc_core : int;
  (* Root enumeration as an iterator: the VM applies the callback to every
     root in a fixed order.  Unlike the list-returning callback this
     replaces, enumerating allocates nothing per root (the old one rebuilt
     a list — with a list append — on every STW pause and every verify). *)
  roots : (Heap_obj.t -> unit) -> unit;
  stats : Gc_stats.t;
  mutable sink : Gc_log.sink;
  mutable marked_at_cycle_start : int;
  mutable good : Addr.color;
  mutable mark_color : Addr.color;  (* the M0/M1 colour of the current cycle *)
  mutable phase : phase;
  mutable cycle_no : int;
  (* Mark work items: an object plus the slot index scanning resumes from,
     as two parallel arenas (pushing a pair vector entry would box a tuple
     per mark).  Large objects (e.g. big reference arrays) are traced in
     bounded chunks so GC work interleaves with mutator progress at
     realistic granularity — otherwise one work unit could atomically
     relocate everything a big array points into, erasing the mutator/GC
     relocation race of §3.2. *)
  mark_objs : Heap_obj.t Vec.t;
  mark_from : int Vec.t;
  relo_queue : Page.t Vec.t;  (* pages awaiting the GC relocation pass *)
  (* The page currently being evacuated by the GC relocation pass: its
     live-object snapshot (from the livemap) lives in the reused
     [relo_victims] arena, [relo_next] is the cursor.  [relo_page] holds a
     dummy page while [relo_active] is false — an option here would box a
     [Some] per evacuated page. *)
  mutable relo_active : bool;
  mutable relo_page : Page.t;
  relo_victims : Heap_obj.t Vec.t;
  mutable relo_next : int;
  pending_ec : Page.t Vec.t;  (* LAZYRELOCATE: EC deferred to next cycle *)
  (* Freed pages whose forwarding tables are still live, as parallel
     queues ([retire_cycles.(i)] is the cycle [retire_pages.(i)] was
     freed in).  Their ranges stay mapped to them in the page table until
     retirement recycles them, so stale pointers resolve through the same
     lookup as live ones. *)
  retire_cycles : int Vec.t;
  retire_pages : Page.t Vec.t;
  (* Bump targets.  Mutator allocation and relocation pages are per core
     — array-backed so each core owns exactly one slot and reads allocate
     nothing; GC threads keep a hot and a cold target (§3.3);
     medium-object targets are shared. *)
  mut_alloc : Alloc_region.t;
  mut_relo : Alloc_region.t;
  mutable medium_alloc : Page.t option;
  mutable medium_relo : Page.t option;
  mutable gc_hot : Page.t option;
  mutable gc_cold : Page.t option;
  (* [target_bump] results: destination page and address of the last
     successful bump (written instead of returned so the relocation path
     never boxes a tuple). *)
  mutable bump_page : Page.t;
  mutable bump_addr : int;
  (* COLDCONFIDENCE in effect; starts at the configured value and may be
     retuned at run time by a feedback loop (Autotuner). *)
  mutable dyn_cold_confidence : float;
  (* wall-clock view for heap samples; updated by the VM via set_wall *)
  mutable wall_hint : int;
  (* object bytes allocated since the last cycle start; drives cycle
     scheduling the way ZGC's allocation-rate heuristics do *)
  mutable allocated_since_cycle : int;
  (* phase-boundary hook (the heap sanitizer's entry point); must be
     read-only — it runs inside pauses and charges nothing *)
  mutable phase_hook : (phase_edge -> unit) option;
  (* Heap.obj_ids_issued at the last STW1 (see mark_watermark) *)
  mutable mark_watermark : int;
  (* Cycle cost of the most recent [load_ref] (see [last_cost] below);
     written instead of returned so the hot path never boxes a tuple. *)
  mutable last_cost : int;
  (* Current address of the object the most recent [use_handle_page]
     validated (after any relocation it forced), so callers reuse it
     instead of reading the arena again. *)
  mutable last_addr : int;
  (* Cumulative GC-thread and STW cycle totals.  [start_cycle]/[gc_work]/
     [drain] add here instead of returning per-call records (which boxed a
     two-field struct per pump); the VM tracks its own last-seen snapshot
     and routes the deltas. *)
  mutable gc_work_total : int;
  mutable stw_work_total : int;
  (* Scratch cost accumulator for the phase paths: [resolve] and the
     hoisted root/selection callbacks add here.  Owned by one phase entry
     point at a time (callers snapshot it around the call); replaces the
     per-call [int ref] cells the phase paths used to allocate. *)
  mutable acc_cost : int;
  (* EC-selection arenas and parameters for the hoisted callbacks below:
     candidate collection and filtering run through closures created once
     at [create], parameterised via these fields per invocation. *)
  select_cands : Page.t Vec.t;
  demote_cands : Page.t Vec.t;
  ec_scratch : Page.t Vec.t;  (* this cycle's EC, small then medium *)
  mutable select_cls : Layout.size_class;
  mutable ec_threshold : int;
  mutable collect_candidate_fn : Page.t -> unit;
  mutable ec_filter_fn : Page.t -> bool;
  mutable ec_cmp_fn : Page.t -> Page.t -> int;
  mutable collect_demote_fn : Page.t -> unit;
  mutable reset_page_fn : Page.t -> unit;
  mutable seed_root_fn : Heap_obj.t -> unit;
  mutable fixup_root_fn : Heap_obj.t -> unit;
}

(* Placeholder for [relo_page]/[bump_page] while inactive; never read. *)
let dummy_page layout arena =
  Page.create ~layout ~arena ~id:(-1) ~cls:Layout.Small ~start:0 ~size:0
    ~birth_cycle:0

let heap t = t.heap
let config t = t.config
let tier t = t.tier
let set_sink t sink = t.sink <- sink
let stats t = t.stats
let phase t = t.phase
let good_color t = t.good
let cycle_number t = t.cycle_no

let layout t = Heap.layout t.heap

let set_phase_hook t hook = t.phase_hook <- hook

let at_edge t edge =
  match t.phase_hook with None -> () | Some hook -> hook edge

let roots_list t =
  let acc = ref [] in
  t.roots (fun root -> acc := root :: !acc);
  List.rev !acc

let last_cost t = t.last_cost
let last_addr t = t.last_addr

let total_gc_work t = t.gc_work_total
let total_stw_work t = t.stw_work_total

let mark_watermark t = t.mark_watermark

let iter_stale_fwd_pages t f =
  (* The retire queue holds each freed-but-unretired page exactly once. *)
  Vec.iter f t.retire_pages

let who_core t who = match who with Mutator c -> c | Gc -> t.gc_core

let set_wall_hint t wall = t.wall_hint <- wall

let cold_confidence t = t.dyn_cold_confidence

let set_cold_confidence t v =
  if not t.config.Config.hotness then
    invalid_arg "Collector.set_cold_confidence: requires HOTNESS";
  if not (v >= 0.0 && v <= 1.0) then
    invalid_arg "Collector.set_cold_confidence: outside [0,1]";
  t.dyn_cold_confidence <- v

(* ------------------------------------------------------------------ *)
(* Target pages                                                        *)
(* ------------------------------------------------------------------ *)

(* Relocation and allocation targets are allocated with [force] so that
   compaction can always make progress (ZGC's relocation headroom). *)
let fresh_target t ~cls ~force =
  match
    Heap.alloc_page ~force t.heap ~cls ~bytes:0 ~birth_cycle:t.cycle_no
  with
  | Some page ->
      page.Page.is_alloc_target <- true;
      Some page
  | None -> None

let retire_target (page : Page.t) = page.Page.is_alloc_target <- false

let get_target t ~which ~core =
  if which = tgt_mut_alloc then Alloc_region.get t.mut_alloc ~core
  else if which = tgt_mut_relo then Alloc_region.get t.mut_relo ~core
  else if which = tgt_medium_alloc then t.medium_alloc
  else if which = tgt_medium_relo then t.medium_relo
  else if which = tgt_gc_hot then t.gc_hot
  else t.gc_cold

let set_target t ~which ~core p =
  if which = tgt_mut_alloc then Alloc_region.set t.mut_alloc ~core p
  else if which = tgt_mut_relo then Alloc_region.set t.mut_relo ~core p
  else if which = tgt_medium_alloc then t.medium_alloc <- p
  else if which = tgt_medium_relo then t.medium_relo <- p
  else if which = tgt_gc_hot then t.gc_hot <- p
  else t.gc_cold <- p

let cls_of_which which =
  if which = tgt_medium_alloc || which = tgt_medium_relo then Layout.Medium
  else Layout.Small

(* Only plain mutator/medium allocation respects the heap cap; every
   relocation target is forced (relocation headroom). *)
let force_of_which which = which <> tgt_mut_alloc && which <> tgt_medium_alloc

(* Bump [bytes] in the target identified by [which], replacing a full
   target page.  Returns the accumulated page-allocation cost (>= 0), or
   -1 if the heap is exhausted; the destination lands in
   [t.bump_page]/[t.bump_addr]. *)
let rec target_bump t ~which ~core bytes cost =
  match get_target t ~which ~core with
  | Some page ->
      let offset = Page.bump_try page bytes in
      if offset >= 0 then begin
        t.bump_page <- page;
        t.bump_addr <- page.Page.start + offset;
        cost
      end
      else begin
        retire_target page;
        set_target t ~which ~core None;
        target_bump t ~which ~core bytes cost
      end
  | None -> (
      match
        fresh_target t ~cls:(cls_of_which which) ~force:(force_of_which which)
      with
      | None -> -1
      | Some page ->
          set_target t ~which ~core (Some page);
          target_bump t ~which ~core bytes (cost + Cost.alloc_page))

(* ------------------------------------------------------------------ *)
(* Relocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Copy [obj] out of the in-EC page [src].  Returns the cycle cost charged
   to [who].  The forwarding-table insertion is the linearisation point. *)
let relocate t ~who (obj : Heap_obj.t) (src : Page.t) =
  assert (src.Page.state = Page.In_ec);
  let old_addr = Heap_obj.addr t.objs obj in
  let offset = old_addr - src.Page.start in
  let bytes = Heap_obj.size t.objs obj in
  (* Pick the destination bump target (§3.3: with COLDPAGE on, GC threads
     send cold objects to a dedicated cold page; hot objects — and
     everything, when the knob is off — go to the hot page). *)
  let which =
    match src.Page.cls with
    | Layout.Medium -> tgt_medium_relo
    | Layout.Large -> assert false (* large pages are never in EC *)
    | Layout.Small -> (
        match who with
        | Mutator _ -> tgt_mut_relo
        | Gc ->
            if
              t.config.Config.coldpage
              && t.config.Config.hotness
              && not (Page.is_hot src obj)
            then tgt_gc_cold
            else tgt_gc_hot)
  in
  let core = who_core t who in
  let page_cost = target_bump t ~which ~core bytes 0 in
  if page_cost < 0 then raise Out_of_memory;
  let dst = t.bump_page and new_addr = t.bump_addr in
  match Fwd_table.claim src.Page.fwd ~offset ~new_addr with
  | Fwd_table.Already _ ->
      (* Cannot happen in the deterministic simulator: an object still
         registered on its source page has not been claimed. *)
      assert false
  | Fwd_table.Claimed ->
      let copy_cost =
        Machine.load_range t.machine ~core old_addr bytes
        + Machine.store_range t.machine ~core new_addr bytes
      in
      Page.move_object ~src ~dst obj ~new_addr;
      Gc_stats.on_relocate t.stats
        ~by_mutator:(match who with Mutator _ -> true | Gc -> false)
        ~bytes;
      page_cost + copy_cost + Cost.relocate_fixed + Cost.fwd_insert

(* ------------------------------------------------------------------ *)
(* Resolution: coloured address -> current object                      *)
(* ------------------------------------------------------------------ *)

(* Follow forwarding chains and relocate on demand until [addr] names an
   object at its current location.  Accumulates cost in [t.acc_cost]
   (callers own the accumulator around the call). *)
let rec resolve t ~who addr =
  match Heap.page_of_addr t.heap addr with
  | None ->
      raise (Invalid_handle (Printf.sprintf "pointer 0x%x maps to no page" addr))
  | Some page -> (
      let offset = addr - page.Page.start in
      let obj = Page.object_at page ~offset in
      if obj != Heap_obj.none then begin
        if page.Page.state = Page.In_ec then
          t.acc_cost <- t.acc_cost + relocate t ~who obj page;
        obj
      end
      else begin
        (* Relocated out of an in-EC or freed page: follow its forwarding. *)
        t.acc_cost <- t.acc_cost + Cost.fwd_lookup;
        match Fwd_table.get page.Page.fwd ~offset with
        | -1 ->
            raise
              (Invalid_handle
                 (if page.Page.state = Page.Freed then
                    Printf.sprintf
                      "stale pointer 0x%x into freed page #%d with no \
                       forwarding"
                      addr page.Page.id
                  else
                    Printf.sprintf "no object at 0x%x on page #%d" addr
                      page.Page.id))
        | new_addr -> resolve t ~who new_addr
      end)

(* ------------------------------------------------------------------ *)
(* Marking                                                             *)
(* ------------------------------------------------------------------ *)

(* The raising halves of the inlined lookups below stay out of line, so
   the message formatting is not copied into every caller. *)
let unmapped_object t (obj : Heap_obj.t) addr =
  raise
    (Invalid_handle
       (Printf.sprintf "object #%d at unmapped address 0x%x"
          (Heap_obj.id t.objs obj) addr))

(* The page at [addr], the address of [obj]. *)
let[@inline] page_at t (obj : Heap_obj.t) addr =
  match Heap.page_of_addr t.heap addr with
  | Some page -> page
  | None -> unmapped_object t obj addr

let[@inline] page_of_obj t obj = page_at t obj (Heap_obj.addr t.objs obj)

(* Mark [obj], at [addr] on [page] (a to-space page), live; push it for
   tracing when newly marked.  Only meaningful during the marking
   phase.  Inlined: during marking every handle use runs it, and almost
   every one finds the object marked already. *)
let[@inline] mark_on t (page : Page.t) (obj : Heap_obj.t) ~addr =
  assert (page.Page.state <> Page.In_ec);
  if Page.mark_live_at page obj ~addr then begin
    Gc_stats.on_mark t.stats;
    Vec.push t.mark_objs obj;
    Vec.push t.mark_from 0;
    Cost.mark_object
  end
  else 0

(* [mark_on] for an object whose page is not in hand. *)
let mark_object t (obj : Heap_obj.t) =
  let addr = Heap_obj.addr t.objs obj in
  mark_on t (page_at t obj addr) obj ~addr

(* Promote a far-resident page back to DRAM.  Called only with
   [page.tier = Far], which implies a tier exists (demotion is the only
   way to set the bit).  Returns the cycle cost (0 when the promote
   policy is off — the page then stays far and keeps paying [lat_far]). *)
let promote_page t (page : Page.t) =
  match t.tier with
  | Some tier when t.config.Config.tier_promote ->
      Heap.set_tier_dram t.heap page;
      Tier.promote tier ~addr:page.Page.start ~bytes:page.Page.size;
      Gc_stats.on_page_promoted t.stats;
      Cost.tier_promote
  | _ -> 0

let flag_hot t ~(page : Page.t) (obj : Heap_obj.t) =
  (* Hot-flagging a far page promotes it first: with the promote policy
     on, "resident far" implies "no hot bytes" at every phase edge. *)
  let promo =
    if page.Page.tier = Page.Far then promote_page t page else 0
  in
  promo
  +
  if t.config.Config.hotness && page.Page.cls = Layout.Small then
    if Heap.flag_hot t.heap page obj then begin
      Gc_stats.on_hot_flag t.stats;
      Cost.hotmap_cas
    end
    else 0
  else 0

(* ------------------------------------------------------------------ *)
(* Mutator interface                                                   *)
(* ------------------------------------------------------------------ *)

(* Handle validity ([Heap_obj.live_addr], [is_live]): [obj] must not
   have been freed.  An object stays registered on the page at its own
   address from allocation until its page is freed, which frees the
   object and bumps its slot's generation — so validity is one generation
   compare, no hash walk, and a stale handle fails it even after its slot
   is reused. *)
let stale_handle (obj : Heap_obj.t) =
  raise
    (Invalid_handle
       (Printf.sprintf "handle to reclaimed object (handle 0x%x)"
          (Heap_obj.to_int obj)))

(* Roots are handles the workload registered; validate before trusting
   their [addr]. *)
let page_of_root t (root : Heap_obj.t) =
  if not (Heap_obj.is_live t.objs root) then stale_handle root;
  page_of_obj t root

(* The barrier's slow path: the mutator relocates [obj] off the in-EC
   page [src], in access order, and carries on with the to-space page and
   address [relocate] leaves in [t.bump_page]/[t.bump_addr].  Hotness is
   recorded on barrier slow paths only (§3.1.2): a handle use flags the
   object just when it forced relocation work — freshly allocated objects
   reached through good-coloured pointers are never flagged, exactly as
   in ZGC. *)
let[@inline never] relocate_on_use t ~core (obj : Heap_obj.t) (src : Page.t) =
  Gc_stats.on_barrier t.stats ~slow:true;
  let cost = relocate t ~who:(Mutator core) obj src in
  let page = t.bump_page and addr = t.bump_addr in
  let cost = cost + flag_hot t ~page obj in
  let cost =
    if t.phase = Marking then cost + mark_on t page obj ~addr else cost
  in
  t.last_cost <-
    (if page.Page.tier = Page.Far then cost + promote_page t page else cost);
  t.last_addr <- addr;
  page

(* One validation (the generation compare in [live_addr]) and one page
   lookup per handle use: every later step works on the page and address
   in hand. *)
let use_handle_page t ~core (obj : Heap_obj.t) =
  let addr = Heap_obj.live_addr t.objs obj in
  if addr < 0 then stale_handle obj;
  let page = page_at t obj addr in
  if page.Page.state = Page.In_ec then relocate_on_use t ~core obj page
  else begin
    (* The steady-state barrier charges nothing and allocates nothing;
       during marking it marks the object on the page in hand.  The
       tier-bit compare is the only tiering footprint here; it is always
       [Dram] when tiering is off. *)
    Gc_stats.on_barrier t.stats ~slow:false;
    let cost = if t.phase = Marking then mark_on t page obj ~addr else 0 in
    t.last_cost <-
      (if page.Page.tier = Page.Far then cost + promote_page t page else cost);
    t.last_addr <- addr;
    page
  end

let use_handle t ~core obj =
  ignore (use_handle_page t ~core obj : Page.t);
  t.last_cost

let[@inline] slot_addr t obj slot =
  Heap_obj.ref_slot_addr ~layout:(layout t) t.objs obj slot

let no_object addr =
  raise
    (Invalid_handle
       (Printf.sprintf "good-coloured pointer 0x%x has no object" addr))

let load_ref t ~core (src : Heap_obj.t) ~slot =
  (* The barrier moved [src] off any in-EC page; nothing below moves it
     again (a referent on an in-EC page is never [src] itself). *)
  let src_page = use_handle_page t ~core src in
  let c0 = t.last_cost in
  let slot_addr =
    Heap_obj.ref_slot_addr_at ~layout:(layout t) t.objs src ~addr:t.last_addr
      slot
  in
  let c1 = Machine.load t.machine ~core slot_addr in
  let ptr = Page.read src_page slot_addr in
  if Addr.is_null ptr then begin
    t.last_cost <- c0 + c1;
    None
  end
  else if Addr.has_color t.good ptr then begin
    Gc_stats.on_barrier t.stats ~slow:false;
    (* Fast path: the good colour guarantees a current, to-space address.
       The only allocation left on this path is the [Some] return itself
       (the public API is option-shaped). *)
    let addr = Addr.addr ptr in
    match Heap.page_of_addr t.heap addr with
    | None -> no_object addr
    | Some page ->
        let obj = Page.object_at page ~offset:(addr - page.Page.start) in
        if obj == Heap_obj.none then no_object addr;
        t.last_cost <- c0 + c1;
        Some obj
  end
  else begin
    (* Slow path: remap / mark / relocate, flag hotness, self-heal. *)
    Gc_stats.on_barrier t.stats ~slow:true;
    t.acc_cost <- c0 + c1 + Cost.barrier_slow;
    let obj = resolve t ~who:(Mutator core) (Addr.addr ptr) in
    if t.phase = Marking then t.acc_cost <- t.acc_cost + mark_object t obj;
    t.acc_cost <- t.acc_cost + flag_hot t ~page:(page_of_obj t obj) obj;
    Page.write src_page slot_addr
      (Addr.make t.good (Heap_obj.addr t.objs obj));
    t.acc_cost <- t.acc_cost + Machine.store t.machine ~core slot_addr;
    t.last_cost <- t.acc_cost;
    Some obj
  end

let store_ref t ~core (src : Heap_obj.t) ~slot target =
  let src_page = use_handle_page t ~core src in
  let c0 = t.last_cost in
  let slot_addr =
    Heap_obj.ref_slot_addr_at ~layout:(layout t) t.objs src ~addr:t.last_addr
      slot
  in
  let c1 =
    match target with
    | None ->
        Page.write src_page slot_addr Addr.null;
        0
    | Some obj ->
        (* The handle barrier marks [obj] during marking, so a stored
           object cannot hide from the cycle in a slot already traced. *)
        let cu = use_handle t ~core obj in
        Page.write src_page slot_addr (Addr.make t.good t.last_addr);
        cu
  in
  c0 + c1 + Machine.store t.machine ~core slot_addr

(* Charge a successful allocation's header store; the cost goes to
   [last_cost]. *)
let allocated t ~core obj page_cost =
  let header_cost =
    Machine.store_range t.machine ~core (Heap_obj.addr t.objs obj)
      (layout t).Layout.header_bytes
  in
  t.last_cost <- Cost.alloc + page_cost + header_cost;
  obj

let alloc t ~core ~nrefs ~nwords =
  let lay = layout t in
  let bytes = Layout.object_bytes lay ~nrefs ~nwords in
  t.allocated_since_cycle <- t.allocated_since_cycle + bytes;
  Gc_stats.on_alloc t.stats ~bytes;
  match Layout.class_of_object_size lay bytes with
  | Layout.Large -> (
      match
        Heap.alloc_large_object t.heap ~nrefs ~nwords ~birth_cycle:t.cycle_no
      with
      | Some obj -> allocated t ~core obj Cost.alloc_page
      | None -> Heap_obj.none)
  | (Layout.Medium | Layout.Small) as cls ->
      let which =
        if cls = Layout.Medium then tgt_medium_alloc else tgt_mut_alloc
      in
      let page_cost = target_bump t ~which ~core bytes 0 in
      if page_cost < 0 then Heap_obj.none
      else
        allocated t ~core
          (Heap.new_object t.heap t.bump_page ~addr:t.bump_addr ~nrefs ~nwords)
          page_cost

(* ------------------------------------------------------------------ *)
(* The GC cycle                                                        *)
(* ------------------------------------------------------------------ *)

(* Cycle scheduling.  ZGC paces cycles from allocation-rate prediction; we
   use the deterministic equivalent: start a cycle once [trigger] × max-heap
   bytes have been allocated since the last cycle started, with a
   high-usage backstop (the allocation-stall path covers the rest). *)
let hard_usage_trigger = 0.85

let needs_cycle t ~trigger =
  t.phase = Idle
  && (t.allocated_since_cycle
      >= int_of_float (trigger *. float_of_int (Heap.max_bytes t.heap))
     || Heap.used_ratio t.heap >= hard_usage_trigger)

let sample_heap t =
  Gc_stats.on_heap_sample t.stats ~wall:t.wall_hint ~used:(Heap.used_bytes t.heap)

(* STW1. *)
let start_cycle t =
  if t.phase <> Idle then invalid_arg "Collector.start_cycle: cycle in progress";
  t.cycle_no <- t.cycle_no + 1;
  t.allocated_since_cycle <- 0;
  t.mark_watermark <- Heap.obj_ids_issued t.heap;
  t.marked_at_cycle_start <- Gc_stats.objects_marked t.stats;
  if not (Gc_log.is_null t.sink) then
    t.sink
      (Gc_log.Cycle_start
         { cycle = t.cycle_no; wall = t.wall_hint;
           heap_used = Heap.used_bytes t.heap });
  ignore (Gc_stats.on_cycle_start t.stats);
  Gc_stats.on_stw t.stats;
  t.mark_color <- Addr.next_mark_color t.mark_color;
  t.good <- t.mark_color;
  (* Reset per-page mark state (livemap, counters, hotmap epoch flip) for
     pages that will be re-marked; pages still in EC keep their snapshot —
     it drives their pending evacuation. *)
  Heap.iter_pages t.heap t.reset_page_fn;
  (* Fig. 3: under LAZYRELOCATE the deferred relocation pass runs at the
     start of this cycle. *)
  for i = 0 to Vec.length t.pending_ec - 1 do
    Vec.push t.relo_queue (Vec.unsafe_get t.pending_ec i)
  done;
  Vec.clear t.pending_ec;
  (* Seed marking from roots.  Roots on in-EC pages are relocated first
     (the STW pause heals all roots). *)
  t.acc_cost <- Cost.stw_pause;
  t.roots t.seed_root_fn;
  t.phase <- Marking;
  if not (Gc_log.is_null t.sink) then
    t.sink
      (Gc_log.Pause
         { cycle = t.cycle_no; pause = Gc_log.STW1; cost = t.acc_cost;
           wall = t.wall_hint });
  sample_heap t;
  at_edge t Stw1_done;
  t.stw_work_total <- t.stw_work_total + t.acc_cost

(* How many reference slots one GC work unit traces. *)
let scan_chunk = 64

(* Trace (a chunk of) an object popped from the mark stack.  Returns the
   chunk's cost ([t.acc_cost] is used as the accumulator — [resolve] adds
   to it directly). *)
let scan_object t (obj : Heap_obj.t) from_slot =
  let lay = layout t in
  let nrefs = Heap_obj.nrefs t.objs obj in
  let upto = min nrefs (from_slot + scan_chunk) in
  (* Marked objects sit on pages that stay out of the EC until marking
     ends, so resolving the slots below cannot move [obj]. *)
  let page = page_of_obj t obj in
  t.acc_cost <-
    (if from_slot = 0 then
       Machine.load_range t.machine ~core:t.gc_core
         (Heap_obj.addr t.objs obj) lay.Layout.header_bytes
     else 0);
  if upto < nrefs then begin
    Vec.push t.mark_objs obj;
    Vec.push t.mark_from upto
  end;
  if upto > from_slot then
    t.acc_cost <-
      t.acc_cost
      + Machine.load_range t.machine ~core:t.gc_core
          (Heap_obj.ref_slot_addr ~layout:lay t.objs obj from_slot)
          ((upto - from_slot) * lay.Layout.word_bytes);
  for slot = from_slot to upto - 1 do
    t.acc_cost <- t.acc_cost + Cost.scan_slot;
    let ptr = Page.get_ref page obj slot in
    if not (Addr.is_null ptr) then begin
      (* The R colour proves a mutator touched this pointer since STW3 of
         the previous cycle — the referent is hot (§3.1.2). *)
      let was_r = Addr.has_color Addr.R ptr in
      let target = resolve t ~who:Gc (Addr.addr ptr) in
      if was_r then
        t.acc_cost <-
          t.acc_cost + flag_hot t ~page:(page_of_obj t target) target;
      t.acc_cost <- t.acc_cost + mark_object t target;
      let healed = Addr.make t.good (Heap_obj.addr t.objs target) in
      if healed <> ptr then begin
        Page.set_ref page obj slot healed;
        t.acc_cost <-
          t.acc_cost + Machine.store t.machine ~core:t.gc_core (slot_addr t obj slot)
      end
    end
  done;
  t.acc_cost

(* ------------------------------------------------------------------ *)
(* EC selection (§3.1)                                                 *)
(* ------------------------------------------------------------------ *)

let ec_key t (page : Page.t) =
  if t.config.Config.hotness && t.dyn_cold_confidence > 0.0 then
    Page.weighted_live_bytes page ~cold_confidence:t.dyn_cold_confidence
  else page.Page.live_bytes

(* Select evacuation candidates among pages of [cls], marking them In_ec
   and appending them (sparsest first) to [t.ec_scratch].  Returns the
   number selected; the selection cost is added to [t.acc_cost]. *)
let select_class t ~cls ~page_size =
  Vec.clear t.select_cands;
  t.select_cls <- cls;
  Heap.iter_pages t.heap t.collect_candidate_fn;
  t.acc_cost <-
    t.acc_cost + (Vec.length t.select_cands * Cost.ec_select_per_page);
  let relocate_all =
    cls = Layout.Small && t.config.Config.relocate_all_small_pages
  in
  if not relocate_all then begin
    (* ZGC baseline, with WLB substituted for live bytes under HOTNESS +
       COLDCONFIDENCE (§3.1.3): every page whose (weighted) occupancy is
       below the 75% threshold is selected, sorted sparsest first so the
       cheapest reclamation happens earliest.  (The paper also states a
       prefix-budget formula; taken literally it would cap the relocated
       live bytes at 3/4 of a single page, which contradicts the EC sizes
       its own Fig. 4 reports, so we follow ZGC's
       threshold-filter-selects-all behaviour — see DESIGN.md.)

       The filter and sort run in place on the candidate arena; the
       comparator's (key, id) order is total, so the in-place heapsort
       yields exactly the sequence the old [List.sort] pipeline did. *)
    t.ec_threshold <- 3 * page_size / 4;
    Vec.retain t.ec_filter_fn t.select_cands;
    Vec.sort t.ec_cmp_fn t.select_cands
  end;
  let selected = Vec.length t.select_cands in
  for i = 0 to selected - 1 do
    let page = Vec.unsafe_get t.select_cands i in
    page.Page.state <- Page.In_ec;
    Vec.push t.ec_scratch page
  done;
  selected

(* Demote cold small pages to the far tier, capacity permitting.  Runs on
   the GC core at sweep (after EC selection, so freshly-selected In_ec
   pages are excluded).  A page is demotable when it survived marking with
   no hot bytes this epoch — and, below full COLDCONFIDENCE, none the
   previous epoch either (less confidence in the hotmap means demanding a
   longer cold streak before paying the migration).  Candidates are taken
   in page-id order so the choice under capacity pressure is
   deterministic. *)

let page_id_cmp (a : Page.t) (b : Page.t) = compare a.Page.id b.Page.id

let rec demote_loop t tier i demoted =
  if i >= Vec.length t.demote_cands then demoted
  else begin
    let page = Vec.unsafe_get t.demote_cands i in
    if Tier.would_fit tier ~bytes:page.Page.size then begin
      let ok = Tier.demote tier ~addr:page.Page.start ~bytes:page.Page.size in
      assert ok;
      Heap.set_tier_far t.heap page;
      Gc_stats.on_page_demoted t.stats;
      t.acc_cost <- t.acc_cost + Cost.tier_demote;
      demote_loop t tier (i + 1) (demoted + 1)
    end
    else demote_loop t tier (i + 1) demoted
  end

(* Demotion cost is added to [t.acc_cost]. *)
let demote_cold_pages t tier =
  Vec.clear t.demote_cands;
  Heap.iter_pages t.heap t.collect_demote_fn;
  (* Unique page ids make this a total order: the in-place heapsort
     agrees with the [Array.sort] it replaces. *)
  Vec.sort page_id_cmp t.demote_cands;
  let demoted = demote_loop t tier 0 0 in
  if demoted > 0 && not (Gc_log.is_null t.sink) then
    t.sink
      (Gc_log.Pages_demoted
         { cycle = t.cycle_no; pages = demoted; wall = t.wall_hint })

(* Retire forwarding tables installed before this cycle: marking has
   remapped every live pointer into them, so their address ranges can be
   recycled.  The queue is compacted in place. *)
let rec retire_compact t i j =
  if i >= Vec.length t.retire_cycles then j
  else begin
    let freed_cycle = Vec.unsafe_get t.retire_cycles i in
    let page = Vec.unsafe_get t.retire_pages i in
    if freed_cycle < t.cycle_no then begin
      Heap.recycle_range t.heap page;
      retire_compact t (i + 1) j
    end
    else begin
      Vec.set t.retire_cycles j freed_cycle;
      Vec.set t.retire_pages j page;
      retire_compact t (i + 1) (j + 1)
    end
  end

let retire_fwd_tables t =
  let kept = retire_compact t 0 0 in
  Vec.truncate t.retire_cycles kept;
  Vec.truncate t.retire_pages kept

let end_cycle t =
  t.phase <- Idle;
  if not (Gc_log.is_null t.sink) then
    t.sink
      (Gc_log.Cycle_end
         { cycle = t.cycle_no; wall = t.wall_hint;
           heap_used = Heap.used_bytes t.heap });
  sample_heap t;
  at_edge t Cycle_done

(* STW2 + EC selection + STW3, performed when marking has drained. *)
let finish_mark t =
  assert (t.phase = Marking);
  assert (Vec.is_empty t.mark_objs);
  at_edge t Mark_done;
  Gc_stats.on_stw t.stats;
  Gc_stats.on_stw t.stats;
  if not (Gc_log.is_null t.sink) then begin
    t.sink
      (Gc_log.Pause
         { cycle = t.cycle_no; pause = Gc_log.STW2; cost = Cost.stw_pause;
           wall = t.wall_hint });
    t.sink
      (Gc_log.Mark_end
         { cycle = t.cycle_no;
           marked_objects =
             Gc_stats.objects_marked t.stats - t.marked_at_cycle_start;
           wall = t.wall_hint })
  end;
  t.acc_cost <- 2 * Cost.stw_pause;
  retire_fwd_tables t;
  (* EC selection. *)
  Vec.clear t.ec_scratch;
  let small =
    select_class t ~cls:Layout.Small ~page_size:(layout t).Layout.small_page
  in
  let medium =
    select_class t ~cls:Layout.Medium ~page_size:(layout t).Layout.medium_page
  in
  Gc_stats.on_ec_selected t.stats ~small;
  if not (Gc_log.is_null t.sink) then
    t.sink
      (Gc_log.Ec_selected
         { cycle = t.cycle_no; small; medium; wall = t.wall_hint });
  (* Far-tier demotion rides the same sweep, after EC selection so pages
     headed for evacuation are not pointlessly migrated first. *)
  (match t.tier with
  | Some tier -> demote_cold_pages t tier
  | None -> ());
  (* STW3: flip good colour to R; relocate roots pointing into EC. *)
  t.good <- Addr.R;
  t.roots t.fixup_root_fn;
  if not (Gc_log.is_null t.sink) then
    t.sink
      (Gc_log.Pause
         { cycle = t.cycle_no; pause = Gc_log.STW3; cost = Cost.stw_pause;
           wall = t.wall_hint });
  (if t.config.Config.lazy_relocate then begin
     (* Fig. 3: hand the whole relocation set to the mutators until the next
        cycle starts. *)
     for i = 0 to Vec.length t.ec_scratch - 1 do
       Vec.push t.pending_ec (Vec.unsafe_get t.ec_scratch i)
     done;
     if not (Gc_log.is_null t.sink) then
       t.sink
         (Gc_log.Relocation_deferred
            { cycle = t.cycle_no; pages = Vec.length t.ec_scratch;
              wall = t.wall_hint });
     at_edge t Stw3_done;
     end_cycle t
   end
   else begin
     for i = 0 to Vec.length t.ec_scratch - 1 do
       Vec.push t.relo_queue (Vec.unsafe_get t.ec_scratch i)
     done;
     t.phase <- Relocating;
     at_edge t Stw3_done
   end);
  t.stw_work_total <- t.stw_work_total + t.acc_cost

(* Free a fully evacuated page and keep its forwarding table reachable for
   stale-pointer remapping until retirement. *)
let release_page t (page : Page.t) =
  (* Drop far-tier residency before the range can be recycled: a later
     page reusing these granules must start DRAM-resident. *)
  (if page.Page.tier = Page.Far then
     match t.tier with
     | Some tier ->
         Tier.promote tier ~addr:page.Page.start ~bytes:page.Page.size
     | None -> assert false);
  Heap.free_page t.heap page;
  Vec.push t.retire_cycles t.cycle_no;
  Vec.push t.retire_pages page;
  Gc_stats.on_page_freed t.stats

(* Fill the victim arena with the live objects of [page], in livemap
   (address) order — the same order [Page.iter_live] yields, via an
   allocation-free bit cursor. *)
let rec collect_victims t (page : Page.t) bit =
  let bit = Bitmap.next_set page.Page.livemap bit in
  if bit >= 0 then begin
    let obj = Page.object_at page ~offset:(bit * 8) in
    if obj != Heap_obj.none then Vec.push t.relo_victims obj;
    collect_victims t page (bit + 1)
  end

(* One GC relocation step: evacuate the next live object of the current
   page, or finish the page.  Returns the step's cost, or -1 when there is
   no relocation work. *)

let relo_step t =
  if not t.relo_active then
    if Vec.is_empty t.relo_queue then -1
    else begin
      let page = Vec.pop_last t.relo_queue in
      Vec.clear t.relo_victims;
      collect_victims t page 0;
      t.relo_page <- page;
      t.relo_next <- 0;
      t.relo_active <- true;
      Cost.fwd_lookup
    end
  else if t.relo_next >= Vec.length t.relo_victims then begin
    release_page t t.relo_page;
    t.relo_active <- false;
    Cost.fwd_lookup
  end
  else begin
    let obj = Vec.unsafe_get t.relo_victims t.relo_next in
    t.relo_next <- t.relo_next + 1;
    (* The mutator may have beaten us to it (the relocation race). *)
    if
      Heap_obj.is_live t.objs obj
      && Page.contains t.relo_page (Heap_obj.addr t.objs obj)
    then
      relocate t ~who:Gc obj t.relo_page
    else Cost.fwd_lookup
  end

(* The budgeted GC-work loop, as a tail recursion over the accumulated
   concurrent cost (a [while] with refs would allocate the refs per
   pump).  STW costs (finish_mark) land in [stw_work_total] and do not
   consume the concurrent budget, exactly as before. *)
let rec gc_loop t ~budget gc_acc =
  if gc_acc >= budget then gc_acc
  else begin
    (* Relocation first (Fig. 3: a cycle starts by releasing memory). *)
    let cost = relo_step t in
    if cost >= 0 then gc_loop t ~budget (gc_acc + cost)
    else
      match t.phase with
      | Marking ->
          if Vec.is_empty t.mark_objs then begin
            finish_mark t;
            gc_loop t ~budget gc_acc
          end
          else begin
            let obj = Vec.pop_last t.mark_objs in
            let from_slot = Vec.pop_last t.mark_from in
            gc_loop t ~budget (gc_acc + scan_object t obj from_slot)
          end
      | Relocating ->
          (* Queue drained and no page in progress: the cycle is done. *)
          end_cycle t;
          gc_acc
      | Idle -> gc_acc
  end

let gc_work t ~budget =
  t.gc_work_total <- t.gc_work_total + gc_loop t ~budget 0

let in_cycle t = t.phase <> Idle

let pending_relocation_pages t =
  Vec.length t.pending_ec + Vec.length t.relo_queue
  + (if t.relo_active then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Hoisted per-phase callbacks (built once at [create])                 *)
(* ------------------------------------------------------------------ *)

let init_callbacks t =
  t.reset_page_fn <-
    (fun page ->
      if page.Page.state = Page.Active then Heap.reset_mark_state t.heap page);
  t.seed_root_fn <-
    (fun root ->
      t.acc_cost <- t.acc_cost + Cost.root_fixup;
      let page = page_of_root t root in
      if page.Page.state = Page.In_ec then
        t.acc_cost <- t.acc_cost + relocate t ~who:Gc root page;
      t.acc_cost <- t.acc_cost + mark_object t root);
  t.fixup_root_fn <-
    (fun root ->
      t.acc_cost <- t.acc_cost + Cost.root_fixup;
      let page = page_of_root t root in
      if page.Page.state = Page.In_ec then
        t.acc_cost <- t.acc_cost + relocate t ~who:Gc root page);
  t.collect_candidate_fn <-
    (fun page ->
      if
        page.Page.cls = t.select_cls
        && page.Page.state = Page.Active
        && page.Page.birth_cycle < t.cycle_no
        && not page.Page.is_alloc_target
      then Vec.push t.select_cands page);
  t.ec_filter_fn <- (fun page -> ec_key t page < t.ec_threshold);
  t.ec_cmp_fn <-
    (fun p1 p2 ->
      match compare (ec_key t p1) (ec_key t p2) with
      | 0 -> compare p1.Page.id p2.Page.id
      | c -> c);
  t.collect_demote_fn <-
    (fun page ->
      if
        page.Page.cls = Layout.Small
        && page.Page.state = Page.Active
        && page.Page.birth_cycle < t.cycle_no
        && (not page.Page.is_alloc_target)
        && page.Page.tier = Page.Dram
        && page.Page.live_bytes > 0
        && page.Page.hot_bytes = 0
        && (t.dyn_cold_confidence >= 1.0 || page.Page.prev_hot_bytes = 0)
      then Vec.push t.demote_cands page)

let create ?(sink = Gc_log.null_sink) ~heap ~machine ~config ~gc_core ~roots
    () =
  (match Config.validate config with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Collector.create: " ^ msg));
  let lay = Heap.layout heap in
  let tier =
    if t_cap config > 0 then
      Some
        (Tier.create ~granule_bytes:(Layout.granule lay)
           ~capacity_bytes:(t_cap config * lay.Layout.small_page)
           ~lat_far:config.Config.lat_far ())
    else None
  in
  Machine.set_tier machine tier;
  let dummy = dummy_page lay (Heap.objects heap) in
  let t =
    {
      heap;
      objs = Heap.objects heap;
      machine;
      config;
      tier;
      gc_core;
      roots;
      stats = Gc_stats.create ();
      sink;
      marked_at_cycle_start = 0;
      good = Addr.M1;
      mark_color = Addr.M1;
      phase = Idle;
      cycle_no = 0;
      mark_objs = Vec.create ();
      mark_from = Vec.create ();
      relo_queue = Vec.create ();
      relo_active = false;
      relo_page = dummy;
      relo_victims = Vec.create ();
      relo_next = 0;
      pending_ec = Vec.create ();
      retire_cycles = Vec.create ();
      retire_pages = Vec.create ();
      mut_alloc = Alloc_region.create ~cores:(Machine.cores machine) ();
      mut_relo = Alloc_region.create ~cores:(Machine.cores machine) ();
      medium_alloc = None;
      medium_relo = None;
      gc_hot = None;
      gc_cold = None;
      bump_page = dummy;
      bump_addr = 0;
      dyn_cold_confidence = config.Config.cold_confidence;
      wall_hint = 0;
      allocated_since_cycle = 0;
      phase_hook = None;
      mark_watermark = 0;
      last_cost = 0;
      last_addr = 0;
      gc_work_total = 0;
      stw_work_total = 0;
      acc_cost = 0;
      select_cands = Vec.create ();
      demote_cands = Vec.create ();
      ec_scratch = Vec.create ();
      select_cls = Layout.Small;
      ec_threshold = 0;
      collect_candidate_fn = ignore;
      ec_filter_fn = (fun _ -> false);
      ec_cmp_fn = (fun _ _ -> 0);
      collect_demote_fn = ignore;
      reset_page_fn = ignore;
      seed_root_fn = ignore;
      fixup_root_fn = ignore;
    }
  in
  (* The per-phase callbacks are built once here and reused every cycle;
     their per-invocation parameters travel through the scratch fields
     above, so the phase paths never construct a closure. *)
  init_callbacks t;
  t

let drain t =
  (* Complete the in-flight cycle, then — if a LAZYRELOCATE set is pending —
     run one more full cycle so its leading RE pass releases the floating
     garbage.  Deliberately bounded: under RELOCATEALLSMALLPAGES + LAZY
     every cycle ends with a fresh pending set, so "drain until nothing is
     pending" would never terminate. *)
  while in_cycle t do
    gc_work t ~budget:max_int
  done;
  if pending_relocation_pages t > 0 then begin
    start_cycle t;
    while in_cycle t do
      gc_work t ~budget:max_int
    done
  end
