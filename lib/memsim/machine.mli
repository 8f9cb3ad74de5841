(** A multi-core machine model: per-core L1/L2 and stream prefetcher, shared
    LLC.

    The paper's client machine runs mutator and GC threads on separate
    (hyper)cores: GC work "stays hidden in an unloaded system" but still
    pollutes the shared LLC and shows up in whole-process perf counters
    (§4.2, §4.4).

    {2 Counter scopes}

    Two counter families coexist and it matters which one a reading comes
    from:

    - {b Machine-wide} ({!counters}, {!tlb_misses}, {!far_loads}): all
      cores summed — what process-level perf reports (§4.2: "the
      statistics is for the whole process").
    - {b Per-core} ({!core_counters}, {!core_tlb_misses},
      {!core_far_loads}): one private hierarchy's view, for attributing
      traffic to mutator vs GC threads.

    Only the per-core counters are kept; a machine-wide reading sums them
    over the cores when it is made.

    Every access is simulated inline, when it is made: it walks the
    core's private levels and the shared LLC and returns its latency. *)
type t

val create : ?cfg:Hierarchy.config -> cores:int -> unit -> t
(** [create ~cores ()] builds [cores] private L1/L2 pairs sharing one LLC.
    @raise Invalid_argument if [cores < 1]. *)

val cores : t -> int

val line_bytes : t -> int

val load : t -> core:int -> int -> int
(** Demand load of the line containing the byte address, on the given core;
    returns latency in cycles. *)

val store : t -> core:int -> int -> int

val load_range : t -> core:int -> int -> int -> int
(** [load_range t ~core addr bytes] touches every line of the range. *)

val store_range : t -> core:int -> int -> int -> int

(** {2 Counters} *)

val counters : t -> Hierarchy.counters
(** Machine-wide counters (all cores summed) — what process-level perf
    reports. *)

val core_counters : t -> core:int -> Hierarchy.counters
(** Per-core counters, for attributing traffic to mutator vs GC threads
    (not available to the paper's methodology, but useful for analysis). *)

val tlb_misses : t -> int
(** Machine-wide dTLB misses (0 unless the config enables the TLB model). *)

val core_tlb_misses : t -> core:int -> int

(** {2 Far-memory tier} *)

val set_tier : t -> Tier.t option -> unit
(** Attach (or detach with [None]) a far-memory tier.  With a tier
    attached, every demand-load LLC miss whose line falls in a resident
    {!Tier} granule is served at [Tier.lat_far] instead of [lat_mem] and
    counted in {!far_loads}.  Stores are unaffected (write-buffered). *)

val tier : t -> Tier.t option

val far_loads : t -> int
(** Machine-wide count of demand loads served from the far tier (a
    subset of the LLC misses in {!counters}). *)

val core_far_loads : t -> core:int -> int

val reset_counters : t -> unit

val flush : t -> unit
(** Invalidate all caches and prefetchers and zero counters. *)
