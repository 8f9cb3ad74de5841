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
  (* Machine-wide counter totals.  In sharded mode these are only updated
     on the merging domain (inline for non-shard cores, via the buffered
     deltas for shard cores), so they stay race-free. *)
  mutable loads : int;
  mutable stores : int;
  mutable l1_misses : int;
  mutable l2_misses : int;
  mutable llc_misses : int;
  mutable prefetches : int;
  mutable tlb_misses_ : int;
  mutable far_loads_ : int;
  (* Optional far-memory tier behind the LLC.  Consulted only on the
     demand-load LLC-miss path — inline (unsharded cores / GC core) or in
     the sequential [merge_shard] — so tiered results stay byte-identical
     at any shard-domain count.  [None] (the default) charges [lat_mem]
     for every LLC miss, exactly the pre-tier machine. *)
  mutable tier : Tier.t option;
  (* Epoch sharding: cores [0 .. nshards-1] defer their traffic into
     per-shard logs instead of simulating inline ([nshards = 0] is the
     classic fully-inline machine).  See {!attach_shards}. *)
  mutable nshards : int;
  mutable shard_arr : Shard_cache.t array;
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
    nshards = 0;
    shard_arr = [||];
  }

let cores t = Array.length t.core_arr

let attach_shards t n =
  if n < 0 || n > Array.length t.core_arr then
    invalid_arg "Machine.attach_shards: shard count out of range";
  t.nshards <- n;
  t.shard_arr <- Array.init n (fun _ -> Shard_cache.create ())

let shards t = t.nshards

let set_tier t tier = t.tier <- tier

let tier t = t.tier

let shards_dirty t =
  let dirty = ref false in
  for i = 0 to t.nshards - 1 do
    if Shard_cache.pending t.shard_arr.(i) then dirty := true
  done;
  !dirty

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
  if i < t.nshards then begin
    Shard_cache.log_access t.shard_arr.(i) ~op:Shard_cache.op_load addr;
    0
  end
  else begin
    let c = core t i in
    let line = Cache.line_of_addr c.l1 addr in
    t.loads <- t.loads + 1;
    c.c_loads <- c.c_loads + 1;
    let walk = translate t c addr in
    let lat = demand t c line ~is_load:true in
    run_prefetcher t c line;
    walk + lat
  end

let store t ~core:i addr =
  if i < t.nshards then begin
    Shard_cache.log_access t.shard_arr.(i) ~op:Shard_cache.op_store addr;
    0
  end
  else begin
    let c = core t i in
    let line = Cache.line_of_addr c.l1 addr in
    t.stores <- t.stores + 1;
    c.c_stores <- c.c_stores + 1;
    let walk = translate t c addr in
    ignore (demand t c line ~is_load:false);
    run_prefetcher t c line;
    walk + t.cfg.Hierarchy.lat_store
  end

(* The range walks repeat the exact per-line sequence of [load]/[store]
   (counters, translation, demand, prefetcher), but resolve the core once
   and run a direct loop — the closure-per-call [range_fold]/partial
   application this replaces dominated the GC relocation copy path. *)
let load_range t ~core:i addr bytes =
  if bytes <= 0 then 0
  else if i < t.nshards then begin
    Shard_cache.log_range t.shard_arr.(i) ~op:Shard_cache.op_load_range addr
      bytes;
    0
  end
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
  else if i < t.nshards then begin
    Shard_cache.log_range t.shard_arr.(i) ~op:Shard_cache.op_store_range addr
      bytes;
    0
  end
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

(* ------------------------------------------------------------------ *)
(* Epoch replay: the deferred half of sharded simulation.               *)
(*                                                                      *)
(* [replay_shard] walks one shard's access log against that shard's     *)
(* private core state only — no shared LLC, no machine-wide counters —  *)
(* so any number of shards replay concurrently.  The accesses that miss *)
(* both private levels are emitted, in program order, into the shard's  *)
(* LLC request stream; [merge_shard] then resolves streams against the  *)
(* shared LLC strictly one shard at a time.  Calling merge in a fixed   *)
(* shard order makes the machine's evolution a pure function of the     *)
(* logged traffic, independent of which domains replayed what.          *)
(* ------------------------------------------------------------------ *)

module S = Shard_cache

let[@inline] replay_translate t c s addr =
  match c.tlb with
  | None -> 0
  | Some tlb ->
      if Cache.access tlb (Cache.line_of_addr tlb addr) then 0
      else begin
        c.c_tlbm <- c.c_tlbm + 1;
        s.S.d_tlbm <- s.S.d_tlbm + 1;
        t.cfg.Hierarchy.lat_tlb_miss
      end

(* Private levels of [demand]: an access that misses L1 and L2 is deferred
   to the merge as an LLC request and contributes no latency here. *)
let replay_demand t c s line ~is_load =
  if Cache.access c.l1 line then t.cfg.Hierarchy.lat_l1
  else begin
    if is_load then begin
      c.c_l1m <- c.c_l1m + 1;
      s.S.d_l1m <- s.S.d_l1m + 1
    end;
    if Cache.access c.l2 line then t.cfg.Hierarchy.lat_l2
    else begin
      if is_load then begin
        c.c_l2m <- c.c_l2m + 1;
        s.S.d_l2m <- s.S.d_l2m + 1
      end;
      S.push_llc s line
        ~kind:(if is_load then S.llc_demand_load else S.llc_demand_store);
      0
    end
  end

let replay_prefetcher t c s line =
  if t.cfg.Hierarchy.prefetch then begin
    let n = Prefetcher.observe_into c.pf line c.pf_buf in
    for i = 0 to n - 1 do
      let l = Array.unsafe_get c.pf_buf i in
      if l >= 0 then begin
        S.push_llc s ~kind:S.llc_insert l;
        Cache.insert c.l2 l;
        Cache.insert c.l1 l;
        c.c_pf <- c.c_pf + 1;
        s.S.d_pf <- s.S.d_pf + 1
      end
    done
  end

(* One logged single-address access: the exact [load]/[store] sequence with
   the LLC level deferred.  Stores take [lat_store] and ignore the demand
   latency, as inline stores do. *)
let[@inline] replay_one t c s ~is_load addr =
  if is_load then begin
    c.c_loads <- c.c_loads + 1;
    s.S.d_loads <- s.S.d_loads + 1
  end
  else begin
    c.c_stores <- c.c_stores + 1;
    s.S.d_stores <- s.S.d_stores + 1
  end;
  let line = Cache.line_of_addr c.l1 addr in
  let walk = replay_translate t c s addr in
  let lat = replay_demand t c s line ~is_load in
  replay_prefetcher t c s line;
  s.S.lat <-
    s.S.lat + walk
    + (if is_load then lat else t.cfg.Hierarchy.lat_store)

let check_shard t i =
  if i < 0 || i >= t.nshards then
    invalid_arg "Machine: shard index out of range"

let replay_shard t ~shard:i =
  check_shard t i;
  let s = t.shard_arr.(i) in
  let c = t.core_arr.(i) in
  let log = s.S.log in
  let n = s.S.log_len in
  let lb = line_bytes t in
  let j = ref 0 in
  while !j < n do
    let e = Array.unsafe_get log !j in
    let op = e land 3 and addr = e lsr 2 in
    if op = S.op_load then begin
      replay_one t c s ~is_load:true addr;
      incr j
    end
    else if op = S.op_store then begin
      replay_one t c s ~is_load:false addr;
      incr j
    end
    else begin
      (* Range walk: per line, same as the inline ranges. *)
      let bytes = Array.unsafe_get log (!j + 1) in
      let is_load = op = S.op_load_range in
      let first = addr / lb and last = (addr + bytes - 1) / lb in
      for line = first to last do
        replay_one t c s ~is_load (line * lb)
      done;
      j := !j + 2
    end
  done

let merge_shard t ~shard:i =
  check_shard t i;
  let s = t.shard_arr.(i) in
  let c = t.core_arr.(i) in
  t.loads <- t.loads + s.S.d_loads;
  t.stores <- t.stores + s.S.d_stores;
  t.l1_misses <- t.l1_misses + s.S.d_l1m;
  t.l2_misses <- t.l2_misses + s.S.d_l2m;
  t.prefetches <- t.prefetches + s.S.d_pf;
  t.tlb_misses_ <- t.tlb_misses_ + s.S.d_tlbm;
  let lat = ref s.S.lat in
  let lat_llc = t.cfg.Hierarchy.lat_llc in
  for k = 0 to s.S.llc_len - 1 do
    let e = Array.unsafe_get s.S.llc k in
    let kind = e land 3 and line = e lsr 2 in
    if kind = S.llc_demand_load then begin
      if Cache.access t.llc line then lat := !lat + lat_llc
      else begin
        t.llc_misses <- t.llc_misses + 1;
        c.c_llcm <- c.c_llcm + 1;
        lat := !lat + far_or_mem t c line
      end
    end
    else if kind = S.llc_demand_store then ignore (Cache.access t.llc line)
    else Cache.insert t.llc line
  done;
  S.reset_epoch s;
  !lat

let flush_shards t =
  let lats = Array.make t.nshards 0 in
  for i = 0 to t.nshards - 1 do
    replay_shard t ~shard:i
  done;
  for i = 0 to t.nshards - 1 do
    lats.(i) <- merge_shard t ~shard:i
  done;
  lats

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

let shard_counters t ~shard:i =
  check_shard t i;
  core_counters t ~core:i

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
  (* Logged-but-unmerged epoch traffic is discarded along with the cache
     state it would have touched. *)
  Array.iter S.reset_epoch t.shard_arr;
  reset_counters t
