module Vec = Hcsgc_util.Vec

(* Mutable so first-fit splitting can shrink a range in place. *)
type free_range = { mutable granule : int; mutable ngranules : int }

type t = {
  layout : Layout.t;
  objects : Heap_obj.arena;
  page_table : Page_table.t;
  mutable next_granule : int;  (* next never-used granule; granule 0 reserved *)
  free_small : int Vec.t;  (* granule indices of freed small pages *)
  free_medium : int Vec.t;  (* first granule of freed medium pages *)
  (* Freed large ranges, first-fit.  Kept in reverse recycling order
     (push appends; the fit scan walks from the end), which reproduces
     the allocation decisions of the cons-list representation this
     replaces — newest range tried first — without per-recycle list
     surgery. *)
  free_large : free_range Vec.t;
  mutable used : int;
  max_bytes : int;
  pages : Page.t Vec.t;  (* all non-freed pages (compacted lazily) *)
  mutable next_page_id : int;
  mutable next_obj_id : int;
  (* Running totals kept in step with per-page state so the hot paths and
     telemetry sampling never fold over the page vector: [hot_total] is the
     sum of [Page.hot_bytes] over non-freed pages (all hot flagging and
     epoch resets go through {!flag_hot}/{!reset_mark_state} below), and
     [page_counts] counts non-freed pages per size class. *)
  mutable hot_total : int;
  (* Number of [Freed] tombstones currently in [pages]; maintained by
     {!free_page}/{!compact_pages} so the compaction trigger never folds
     over the page vector. *)
  mutable freed_tombstones : int;
  (* Sum of [Page.size] over non-freed pages whose [Page.tier] is [Far];
     maintained by {!set_tier_far}/{!set_tier_dram}/{!free_page} so the
     far-memory footprint is O(1) to sample, like [hot_total]. *)
  mutable far_total : int;
  page_counts : int array;  (* indexed by class_index *)
}

let class_index (cls : Layout.size_class) =
  match cls with Small -> 0 | Medium -> 1 | Large -> 2

let create ?(layout = Layout.paper) ~max_bytes () =
  {
    layout;
    objects = Heap_obj.create_arena ();
    page_table = Page_table.create ~layout;
    next_granule = 1;
    free_small = Vec.create ();
    free_medium = Vec.create ();
    free_large = Vec.create ();
    used = 0;
    max_bytes;
    pages = Vec.create ();
    next_page_id = 0;
    next_obj_id = 0;
    hot_total = 0;
    freed_tombstones = 0;
    far_total = 0;
    page_counts = Array.make 3 0;
  }

let[@inline] layout t = t.layout
let[@inline] objects t = t.objects
let[@inline] max_bytes t = t.max_bytes
let[@inline] used_bytes t = t.used
let[@inline] used_ratio t = float_of_int t.used /. float_of_int t.max_bytes
let[@inline] hot_bytes t = t.hot_total
let[@inline] far_bytes t = t.far_total

let address_space_bytes t = t.next_granule * Layout.granule t.layout

let granule_bytes t = Layout.granule t.layout

let fresh_page_id t =
  let id = t.next_page_id in
  t.next_page_id <- id + 1;
  id

let fresh_obj_id t =
  let id = t.next_obj_id in
  t.next_obj_id <- id + 1;
  id

let obj_ids_issued t = t.next_obj_id

(* Order-preserving removal at index [i] (the survivors shift left). *)
let vec_remove_at vec i =
  for j = i to Vec.length vec - 2 do
    Vec.set vec j (Vec.get vec (j + 1))
  done;
  Vec.truncate vec (Vec.length vec - 1)

(* First-fit over the recycled large ranges, scanning newest-first (from
   the end — see [free_large] above).  A larger range is split in place;
   an exact fit is removed.  Returns the start granule, or -1. *)
let rec fit_large free_large ngranules i =
  if i < 0 then -1
  else begin
    let r = Vec.unsafe_get free_large i in
    if r.ngranules >= ngranules then begin
      let g = r.granule in
      if r.ngranules > ngranules then begin
        r.granule <- g + ngranules;
        r.ngranules <- r.ngranules - ngranules
      end
      else vec_remove_at free_large i;
      g
    end
    else fit_large free_large ngranules (i - 1)
  end

(* Find a start granule for [ngranules] contiguous granules. *)
let take_granules t ~cls ~ngranules =
  match (cls : Layout.size_class) with
  | Small -> (
      match Vec.pop t.free_small with
      | Some g -> g
      | None ->
          let g = t.next_granule in
          t.next_granule <- g + 1;
          g)
  | Medium -> (
      match Vec.pop t.free_medium with
      | Some g -> g
      | None ->
          let g = t.next_granule in
          t.next_granule <- g + ngranules;
          g)
  | Large -> (
      match fit_large t.free_large ngranules (Vec.length t.free_large - 1) with
      | -1 ->
          let g = t.next_granule in
          t.next_granule <- g + ngranules;
          g
      | g -> g)

let alloc_page ?(force = false) t ~cls ~bytes ~birth_cycle =
  let size = Layout.page_bytes_for t.layout cls bytes in
  if (not force) && t.used + size > t.max_bytes then None
  else begin
    let ngranules = size / granule_bytes t in
    let g = take_granules t ~cls ~ngranules in
    let page =
      Page.create ~layout:t.layout ~arena:t.objects ~id:(fresh_page_id t) ~cls
        ~start:(g * granule_bytes t) ~size ~birth_cycle
    in
    Page_table.register t.page_table page;
    Vec.push t.pages page;
    t.used <- t.used + size;
    t.page_counts.(class_index cls) <- t.page_counts.(class_index cls) + 1;
    Some page
  end

let page_live (p : Page.t) = p.Page.state <> Page.Freed

let compact_pages t =
  (* In-place, order-preserving sweep of the tombstones. *)
  Vec.retain page_live t.pages;
  t.freed_tombstones <- 0

let free_page t (page : Page.t) =
  if page.Page.state = Page.Freed then
    invalid_arg "Heap.free_page: page already freed";
  Page.release page;
  page.Page.state <- Page.Freed;
  t.used <- t.used - page.Page.size;
  t.hot_total <- t.hot_total - page.Page.hot_bytes;
  if page.Page.tier = Page.Far then begin
    t.far_total <- t.far_total - page.Page.size;
    page.Page.tier <- Page.Dram
  end;
  t.page_counts.(class_index page.Page.cls) <-
    t.page_counts.(class_index page.Page.cls) - 1;
  (* Keep the page vector from accumulating tombstones: compact once more
     than half of it is freed pages.  Each compaction at least halves the
     vector, so the sweeps cost O(1) amortised per freed page. *)
  t.freed_tombstones <- t.freed_tombstones + 1;
  if 2 * t.freed_tombstones > Vec.length t.pages then compact_pages t

let recycle_range t (page : Page.t) =
  if page.Page.state <> Page.Freed then
    invalid_arg "Heap.recycle_range: page is not freed";
  Page_table.unregister t.page_table page;
  let g = page.Page.start / granule_bytes t in
  let ngranules = page.Page.size / granule_bytes t in
  match page.Page.cls with
  | Layout.Small -> Vec.push t.free_small g
  | Layout.Medium -> Vec.push t.free_medium g
  | Layout.Large -> Vec.push t.free_large { granule = g; ngranules }

let new_object t page ~addr ~nrefs ~nwords =
  Page.new_object page ~id:(fresh_obj_id t) ~addr ~nrefs ~nwords

let alloc_object_in t (page : Page.t) ~nrefs ~nwords =
  let size = Layout.object_bytes t.layout ~nrefs ~nwords in
  match Page.bump_alloc page size with
  | None -> None
  | Some offset ->
      Some (new_object t page ~addr:(page.Page.start + offset) ~nrefs ~nwords)

let alloc_large_object t ~nrefs ~nwords ~birth_cycle =
  let size = Layout.object_bytes t.layout ~nrefs ~nwords in
  match alloc_page t ~cls:Layout.Large ~bytes:size ~birth_cycle with
  | None -> None
  | Some page -> (
      match alloc_object_in t page ~nrefs ~nwords with
      | Some obj -> Some obj
      | None -> assert false (* a large page always fits its single object *))

let[@inline] page_of_addr t addr = Page_table.page_of_addr t.page_table addr

let page_of_obj t obj =
  if not (Heap_obj.is_live t.objects obj) then
    invalid_arg "Heap: handle to a freed object";
  match page_of_addr t (Heap_obj.addr t.objects obj) with
  | Some page -> page
  | None -> invalid_arg "Heap: object on an unmapped page"

let get_ref t obj i = Page.get_ref (page_of_obj t obj) obj i
let set_ref t obj i p = Page.set_ref (page_of_obj t obj) obj i p
let get_word t obj i = Page.get_word (page_of_obj t obj) obj i
let set_word t obj i v = Page.set_word (page_of_obj t obj) obj i v

let obj_at t addr =
  match page_of_addr t addr with
  | None -> None
  | Some page -> Page.find_object page ~offset:(Page.offset_of_addr page addr)

let iter_pages t f =
  (* Index loop rather than [Vec.iter] with a wrapper closure: called
     once per page-filtering pass of every GC cycle, and the wrapper
     would allocate per call. *)
  for i = 0 to Vec.length t.pages - 1 do
    let p = Vec.unsafe_get t.pages i in
    if p.Page.state <> Page.Freed then f p
  done

let page_count t cls = t.page_counts.(class_index cls)

let pages_held t = Vec.length t.pages
let tombstones t = t.freed_tombstones

let flag_hot t (page : Page.t) obj =
  let newly = Page.flag_hot page obj in
  if newly then t.hot_total <- t.hot_total + Heap_obj.size t.objects obj;
  newly

let reset_mark_state t (page : Page.t) =
  t.hot_total <- t.hot_total - page.Page.hot_bytes;
  Page.reset_mark_state page

let set_tier_far t (page : Page.t) =
  if page.Page.state = Page.Freed then
    invalid_arg "Heap.set_tier_far: page is freed";
  if page.Page.tier <> Page.Far then begin
    page.Page.tier <- Page.Far;
    t.far_total <- t.far_total + page.Page.size
  end

let set_tier_dram t (page : Page.t) =
  if page.Page.tier <> Page.Dram then begin
    page.Page.tier <- Page.Dram;
    t.far_total <- t.far_total - page.Page.size
  end
