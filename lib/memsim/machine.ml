type core = {
  l1 : Cache.t;
  l2 : Cache.t;
  pf : Prefetcher.t;
  tlb : Cache.t option;
  mutable c_tlbm : int;
  mutable c_loads : int;
  mutable c_stores : int;
  mutable c_l1m : int;
  mutable c_l2m : int;
  mutable c_llcm : int;
  mutable c_pf : int;
  mutable c_far : int;
}

type t = {
  cfg : Hierarchy.config;
  llc : Cache.t;
  (* The counters live in the cores only; machine-wide readings sum them. *)
  core_arr : core array;
  (* Optional far-memory tier behind the LLC, consulted only on the
     demand-load LLC-miss path.  [None] (the default) charges [lat_mem]
     for every LLC miss, exactly the pre-tier machine. *)
  mutable tier : Tier.t option;
}

let create ?(cfg = Hierarchy.default_config) ~cores () =
  if cores < 1 then invalid_arg "Machine.create: need at least one core";
  let lb (g : Cache.geometry) = g.Cache.line_bytes in
  if
    lb cfg.Hierarchy.l1 <> lb cfg.Hierarchy.l2
    || lb cfg.Hierarchy.l2 <> lb cfg.Hierarchy.llc
  then invalid_arg "Machine.create: all levels must share a line size";
  {
    cfg;
    llc = Cache.create cfg.Hierarchy.llc;
    core_arr =
      Array.init cores (fun _ ->
          {
            l1 = Cache.create cfg.Hierarchy.l1;
            l2 = Cache.create cfg.Hierarchy.l2;
            pf = Prefetcher.create ();
            tlb =
              (if cfg.Hierarchy.tlb then
                 (* A TLB is a cache of page translations: model it as a
                    cache whose "line" is one virtual page. *)
                 Some
                   (Cache.create
                      {
                        Cache.size_bytes =
                          cfg.Hierarchy.tlb_entries * cfg.Hierarchy.tlb_page_bytes;
                        ways = cfg.Hierarchy.tlb_ways;
                        line_bytes = cfg.Hierarchy.tlb_page_bytes;
                      })
               else None);
            c_tlbm = 0;
            c_loads = 0;
            c_stores = 0;
            c_l1m = 0;
            c_l2m = 0;
            c_llcm = 0;
            c_pf = 0;
            c_far = 0;
          });
    tier = None;
  }

let cores t = Array.length t.core_arr

let set_tier t tier = t.tier <- tier

let tier t = t.tier

let line_bytes t = t.cfg.Hierarchy.l1.Cache.line_bytes

let[@inline] core t i =
  if i < 0 || i >= Array.length t.core_arr then
    invalid_arg "Machine: core index out of range";
  Array.unsafe_get t.core_arr i

let[@inline never] prefetch_fill t c line =
  Cache.insert t.llc line;
  Cache.insert c.l2 line;
  Cache.insert c.l1 line

(* A confirmed stream of stride [d] fills the [degree] lines after [line]
   in that direction, nearest first, skipping any below line 0.  Most
   fills find the line already most recent in all three levels, where
   filling changes nothing; such a fill costs three compares and no
   call. *)
let[@inline never] fill_ahead t c line d =
  let llc = t.llc and l2 = c.l2 and l1 = c.l1 in
  let l = ref line and n = ref 0 in
  for _ = 1 to Prefetcher.degree c.pf do
    l := !l + d;
    if !l >= 0 then begin
      incr n;
      if not (Cache.is_mru llc !l && Cache.is_mru l2 !l && Cache.is_mru l1 !l)
      then prefetch_fill t c !l
    end
  done;
  c.c_pf <- c.c_pf + !n

let[@inline] run_prefetcher t c line =
  if t.cfg.Hierarchy.prefetch then begin
    let d = Prefetcher.step c.pf line in
    if d <> 0 then fill_ahead t c line d
  end

(* Memory-level latency of a demand load that missed the whole cache
   hierarchy: [lat_far] when the line is far-tier resident, else
   [lat_mem].  (Stores never reach here for latency — they are
   write-buffered and charged [lat_store].) *)
let[@inline] far_or_mem t c line =
  match t.tier with
  | Some tier when Tier.resident tier (line * t.cfg.Hierarchy.l1.Cache.line_bytes)
    ->
      c.c_far <- c.c_far + 1;
      Tier.lat_far tier
  | _ -> t.cfg.Hierarchy.lat_mem

(* The demand walk below L1, out of line: [load_line] and [store_line]
   inline only L1's rank-0 compare.  Loads count a miss at each level they
   pass; a store fills the same levels uncounted. *)
let[@inline never] load_below_l1 t c line =
  c.c_l1m <- c.c_l1m + 1;
  if Cache.access c.l2 line then t.cfg.Hierarchy.lat_l2
  else begin
    c.c_l2m <- c.c_l2m + 1;
    if Cache.access t.llc line then t.cfg.Hierarchy.lat_llc
    else begin
      c.c_llcm <- c.c_llcm + 1;
      far_or_mem t c line
    end
  end

let[@inline never] store_below_l1 t c line =
  if not (Cache.access c.l2 line) then Cache.insert t.llc line

(* Translate [addr]: 0 extra cycles on a dTLB hit, a page walk on a miss. *)
let[@inline] translate t c addr =
  match c.tlb with
  | None -> 0
  | Some tlb ->
      if Cache.access tlb (Cache.line_of_addr tlb addr) then 0
      else begin
        c.c_tlbm <- c.c_tlbm + 1;
        t.cfg.Hierarchy.lat_tlb_miss
      end

(* One demand access to [line], which holds byte address [addr]:
   counters, translation, the cache walk, then the prefetcher. *)
let[@inline] load_line t c line addr =
  c.c_loads <- c.c_loads + 1;
  let walk = translate t c addr in
  let lat =
    if Cache.access c.l1 line then t.cfg.Hierarchy.lat_l1
    else load_below_l1 t c line
  in
  run_prefetcher t c line;
  walk + lat

let[@inline] store_line t c line addr =
  c.c_stores <- c.c_stores + 1;
  let walk = translate t c addr in
  if not (Cache.access c.l1 line) then store_below_l1 t c line;
  run_prefetcher t c line;
  walk + t.cfg.Hierarchy.lat_store

let load t ~core:i addr =
  let c = core t i in
  load_line t c (Cache.line_of_addr c.l1 addr) addr

let store t ~core:i addr =
  let c = core t i in
  store_line t c (Cache.line_of_addr c.l1 addr) addr

(* The range walks resolve the core once and run [load_line]/[store_line]
   per line in a direct loop — the closure-per-call [range_fold]/partial
   application this replaces dominated the GC relocation copy path.  They
   find their lines by shift, as [load] does, not by division. *)
let load_range t ~core:i addr bytes =
  if bytes <= 0 then 0
  else begin
    let c = core t i in
    let lb = line_bytes t in
    let first = Cache.line_of_addr c.l1 addr
    and last = Cache.line_of_addr c.l1 (addr + bytes - 1) in
    let total = ref 0 in
    for line = first to last do
      total := !total + load_line t c line (line * lb)
    done;
    !total
  end

let store_range t ~core:i addr bytes =
  if bytes <= 0 then 0
  else begin
    let c = core t i in
    let lb = line_bytes t in
    let first = Cache.line_of_addr c.l1 addr
    and last = Cache.line_of_addr c.l1 (addr + bytes - 1) in
    let total = ref 0 in
    for line = first to last do
      total := !total + store_line t c line (line * lb)
    done;
    !total
  end

let core_counters t ~core:i =
  let c = core t i in
  {
    Hierarchy.loads = c.c_loads;
    stores = c.c_stores;
    l1_misses = c.c_l1m;
    l2_misses = c.c_l2m;
    llc_misses = c.c_llcm;
    prefetches = c.c_pf;
  }

let sum t f = Array.fold_left (fun acc c -> acc + f c) 0 t.core_arr

let counters t =
  {
    Hierarchy.loads = sum t (fun c -> c.c_loads);
    stores = sum t (fun c -> c.c_stores);
    l1_misses = sum t (fun c -> c.c_l1m);
    l2_misses = sum t (fun c -> c.c_l2m);
    llc_misses = sum t (fun c -> c.c_llcm);
    prefetches = sum t (fun c -> c.c_pf);
  }

let tlb_misses t = sum t (fun c -> c.c_tlbm)

let core_tlb_misses t ~core:i = (core t i).c_tlbm

let far_loads t = sum t (fun c -> c.c_far)

let core_far_loads t ~core:i = (core t i).c_far

let reset_counters t =
  Array.iter
    (fun c ->
      c.c_loads <- 0;
      c.c_stores <- 0;
      c.c_l1m <- 0;
      c.c_l2m <- 0;
      c.c_llcm <- 0;
      c.c_pf <- 0;
      c.c_tlbm <- 0;
      c.c_far <- 0)
    t.core_arr

let flush t =
  Cache.invalidate_all t.llc;
  Array.iter
    (fun c ->
      Cache.invalidate_all c.l1;
      Cache.invalidate_all c.l2;
      Option.iter Cache.invalidate_all c.tlb;
      Prefetcher.reset c.pf)
    t.core_arr;
  reset_counters t
