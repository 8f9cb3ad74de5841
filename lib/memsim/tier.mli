(** A simulated far-memory tier (CXL/NVM-style) behind the shared LLC.

    The tier is a capacity-bounded set of {e resident} address granules
    with one flat access latency, [lat_far].  {!Machine} consults it on
    every demand-load LLC miss: a miss whose line falls in a resident
    granule is served at [lat_far] instead of [lat_mem] (stores stay
    write-buffered and never pay far latency, matching the inline store
    model).

    Residency is keyed by raw byte address — the tier knows nothing about
    heap pages, keeping this module below [hcsgc_heap] in the dependency
    order.  It is stored as a bitmap over granule indices that grows to
    the highest granule ever demoted; the heap hands out granules densely
    from 0, so that is the heap's span.  The collector drives demotion/promotion of whole pages and
    mirrors residency into [Page.tier]/[Heap.far_bytes]; the tiering
    property tests check the two stay in lock-step.

    Determinism: residency is only mutated by the collector (on the
    logical instruction stream) and only read by the machine on the
    demand-load LLC-miss path, so tiered runs are deterministic. *)

type t

val create :
  granule_bytes:int -> capacity_bytes:int -> lat_far:int -> unit -> t
(** [create ~granule_bytes ~capacity_bytes ~lat_far ()] builds an empty
    tier.  [capacity_bytes] must be a whole number of granules.
    @raise Invalid_argument on a non-positive granule or latency, or a
    misaligned capacity. *)

val granule_bytes : t -> int
val capacity_bytes : t -> int

val lat_far : t -> int
(** Cycles charged for a demand load that misses the LLC into a resident
    granule (replaces [lat_mem]). *)

val used_bytes : t -> int
(** Bytes currently resident, in O(1). *)

val peak_bytes : t -> int
(** High-water mark of {!used_bytes} — the run's DRAM-footprint saving. *)

val resident : t -> int -> bool
(** [resident t addr] — whether the granule containing byte address
    [addr] is far-resident.  O(1); called on the LLC-miss path. *)

val would_fit : t -> bytes:int -> bool

val demote : t -> addr:int -> bytes:int -> bool
(** Mark the granule-aligned range resident.  Returns [false] (changing
    nothing) if it would exceed capacity.
    @raise Invalid_argument on a misaligned range or double demotion. *)

val promote : t -> addr:int -> bytes:int -> unit
(** Remove the granule-aligned range from the tier.
    @raise Invalid_argument if any granule is not resident. *)

val reset : t -> unit
(** Empty the tier and zero {!used_bytes}/{!peak_bytes}. *)
