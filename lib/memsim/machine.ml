type core = {
  l1 : Cache.t;
  l2 : Cache.t;
  pf : Prefetcher.t;
  pf_buf : int array;  (* preallocated Prefetcher.observe_into target *)
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
  core_arr : core array;
  (* Machine-wide counter totals. *)
  mutable loads : int;
  mutable stores : int;
  mutable l1_misses : int;
  mutable l2_misses : int;
  mutable llc_misses : int;
  mutable prefetches : int;
  mutable tlb_misses_ : int;
  mutable far_loads_ : int;
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
          let pf = Prefetcher.create () in
          {
            l1 = Cache.create cfg.Hierarchy.l1;
            l2 = Cache.create cfg.Hierarchy.l2;
            pf;
            pf_buf = Array.make (Prefetcher.degree pf) 0;
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
    loads = 0;
    stores = 0;
    l1_misses = 0;
    l2_misses = 0;
    llc_misses = 0;
    prefetches = 0;
    tlb_misses_ = 0;
    far_loads_ = 0;
    tier = None;
  }

let cores t = Array.length t.core_arr

let set_tier t tier = t.tier <- tier

let tier t = t.tier

let line_bytes t = t.cfg.Hierarchy.l1.Cache.line_bytes

let core t i =
  if i < 0 || i >= Array.length t.core_arr then
    invalid_arg "Machine: core index out of range";
  t.core_arr.(i)

let[@inline] prefetch_fill t c line =
  Cache.insert t.llc line;
  Cache.insert c.l2 line;
  Cache.insert c.l1 line;
  t.prefetches <- t.prefetches + 1;
  c.c_pf <- c.c_pf + 1

let run_prefetcher t c line =
  if t.cfg.Hierarchy.prefetch then begin
    let n = Prefetcher.observe_into c.pf line c.pf_buf in
    for i = 0 to n - 1 do
      let l = Array.unsafe_get c.pf_buf i in
      if l >= 0 then prefetch_fill t c l
    done
  end

(* Memory-level latency of a demand load that missed the whole cache
   hierarchy: [lat_far] when the line is far-tier resident, else
   [lat_mem].  (Stores never reach here for latency — they are
   write-buffered and charged [lat_store].) *)
let[@inline] far_or_mem t c line =
  match t.tier with
  | Some tier when Tier.resident tier (line * t.cfg.Hierarchy.l1.Cache.line_bytes)
    ->
      t.far_loads_ <- t.far_loads_ + 1;
      c.c_far <- c.c_far + 1;
      Tier.lat_far tier
  | _ -> t.cfg.Hierarchy.lat_mem

let demand t c line ~is_load =
  if Cache.access c.l1 line then t.cfg.Hierarchy.lat_l1
  else begin
    if is_load then begin
      t.l1_misses <- t.l1_misses + 1;
      c.c_l1m <- c.c_l1m + 1
    end;
    if Cache.access c.l2 line then t.cfg.Hierarchy.lat_l2
    else begin
      if is_load then begin
        t.l2_misses <- t.l2_misses + 1;
        c.c_l2m <- c.c_l2m + 1
      end;
      if Cache.access t.llc line then t.cfg.Hierarchy.lat_llc
      else begin
        if is_load then begin
          t.llc_misses <- t.llc_misses + 1;
          c.c_llcm <- c.c_llcm + 1;
          far_or_mem t c line
        end
        else t.cfg.Hierarchy.lat_mem
      end
    end
  end

(* Translate [addr]: 0 extra cycles on a dTLB hit, a page walk on a miss. *)
let[@inline] translate t c addr =
  match c.tlb with
  | None -> 0
  | Some tlb ->
      if Cache.access tlb (Cache.line_of_addr tlb addr) then 0
      else begin
        t.tlb_misses_ <- t.tlb_misses_ + 1;
        c.c_tlbm <- c.c_tlbm + 1;
        t.cfg.Hierarchy.lat_tlb_miss
      end

let load t ~core:i addr =
  let c = core t i in
  let line = Cache.line_of_addr c.l1 addr in
  t.loads <- t.loads + 1;
  c.c_loads <- c.c_loads + 1;
  let walk = translate t c addr in
  let lat = demand t c line ~is_load:true in
  run_prefetcher t c line;
  walk + lat

let store t ~core:i addr =
  let c = core t i in
  let line = Cache.line_of_addr c.l1 addr in
  t.stores <- t.stores + 1;
  c.c_stores <- c.c_stores + 1;
  let walk = translate t c addr in
  ignore (demand t c line ~is_load:false);
  run_prefetcher t c line;
  walk + t.cfg.Hierarchy.lat_store

(* The range walks repeat the exact per-line sequence of [load]/[store]
   (counters, translation, demand, prefetcher), but resolve the core once
   and run a direct loop — the closure-per-call [range_fold]/partial
   application this replaces dominated the GC relocation copy path. *)
let load_range t ~core:i addr bytes =
  if bytes <= 0 then 0
  else begin
    let c = core t i in
    let lb = line_bytes t in
    let first = addr / lb and last = (addr + bytes - 1) / lb in
    let total = ref 0 in
    for line = first to last do
      t.loads <- t.loads + 1;
      c.c_loads <- c.c_loads + 1;
      let walk = translate t c (line * lb) in
      let lat = demand t c line ~is_load:true in
      run_prefetcher t c line;
      total := !total + walk + lat
    done;
    !total
  end

let store_range t ~core:i addr bytes =
  if bytes <= 0 then 0
  else begin
    let c = core t i in
    let lb = line_bytes t in
    let first = addr / lb and last = (addr + bytes - 1) / lb in
    let lat_store = t.cfg.Hierarchy.lat_store in
    let total = ref 0 in
    for line = first to last do
      t.stores <- t.stores + 1;
      c.c_stores <- c.c_stores + 1;
      let walk = translate t c (line * lb) in
      ignore (demand t c line ~is_load:false);
      run_prefetcher t c line;
      total := !total + walk + lat_store
    done;
    !total
  end

let counters t =
  {
    Hierarchy.loads = t.loads;
    stores = t.stores;
    l1_misses = t.l1_misses;
    l2_misses = t.l2_misses;
    llc_misses = t.llc_misses;
    prefetches = t.prefetches;
  }

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

let tlb_misses t = t.tlb_misses_

let core_tlb_misses t ~core:i = (core t i).c_tlbm

let far_loads t = t.far_loads_

let core_far_loads t ~core:i = (core t i).c_far

let reset_counters t =
  t.loads <- 0;
  t.stores <- 0;
  t.l1_misses <- 0;
  t.l2_misses <- 0;
  t.llc_misses <- 0;
  t.prefetches <- 0;
  t.tlb_misses_ <- 0;
  t.far_loads_ <- 0;
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
