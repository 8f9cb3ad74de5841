type config = {
  l1 : Cache.geometry;
  l2 : Cache.geometry;
  llc : Cache.geometry;
  lat_l1 : int;
  lat_l2 : int;
  lat_llc : int;
  lat_mem : int;
  lat_store : int;
  prefetch : bool;
  tlb : bool;
  tlb_entries : int;
  tlb_ways : int;
  tlb_page_bytes : int;
  lat_tlb_miss : int;
}

let default_config =
  {
    l1 = { Cache.size_bytes = 32 * 1024; ways = 8; line_bytes = 64 };
    l2 = { Cache.size_bytes = 256 * 1024; ways = 8; line_bytes = 64 };
    llc = { Cache.size_bytes = 4 * 1024 * 1024; ways = 16; line_bytes = 64 };
    lat_l1 = 4;
    lat_l2 = 12;
    lat_llc = 40;
    lat_mem = 200;
    lat_store = 2;
    prefetch = true;
    tlb = false;
    tlb_entries = 64;
    tlb_ways = 4;
    tlb_page_bytes = 4096;
    lat_tlb_miss = 25;
  }

type counters = {
  loads : int;
  stores : int;
  l1_misses : int;
  l2_misses : int;
  llc_misses : int;
  prefetches : int;
}
