(** The cache-hierarchy configuration and event counters.

    {!Machine} simulates the hierarchy; this module holds what describes it.
    The counters stand in for the paper's `perf` measurements (§4.2 "Cache
    Statistics"): the same three counters the paper plots — total loads
    ([L1-dcache-loads]), L1 load misses and LLC load misses — plus stores,
    L2 misses and prefetch fills. *)

type config = {
  l1 : Cache.geometry;
  l2 : Cache.geometry;
  llc : Cache.geometry;
  lat_l1 : int;  (** cycles on an L1 hit *)
  lat_l2 : int;  (** cycles on an L2 hit *)
  lat_llc : int;  (** cycles on an LLC hit *)
  lat_mem : int;  (** cycles on a full miss *)
  lat_store : int;
      (** cycles charged per store: stores update cache state but are
          write-buffered, so they cost a small fixed latency instead of the
          miss penalty *)
  prefetch : bool;  (** enable the stream prefetcher *)
  tlb : bool;
      (** enable the per-core data TLB model: misses add [lat_tlb_miss]
          (a page-table walk).  Off by default — the paper's counters do
          not include dTLB events, but relocation's page-locality benefit
          (packing hot objects onto fewer pages) can be studied with it
          (see the bench ablation). *)
  tlb_entries : int;  (** dTLB capacity in pages (64, like a client core) *)
  tlb_ways : int;  (** dTLB associativity *)
  tlb_page_bytes : int;  (** virtual page size (4 KiB) *)
  lat_tlb_miss : int;  (** page-walk cycles added on a dTLB miss *)
}

val default_config : config
(** The paper's client machine (§4): 32 KB L1d / 256 KB L2 / 4 MB LLC, 64 B
    lines, prefetching on, latencies 4/12/40/200 cycles. *)

type counters = {
  loads : int;  (** demand loads (L1-dcache-loads) *)
  stores : int;
  l1_misses : int;  (** demand loads missing L1 *)
  l2_misses : int;
  llc_misses : int;  (** demand loads missing LLC (served by memory) *)
  prefetches : int;  (** prefetch fills issued *)
}
