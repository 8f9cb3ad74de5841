(** The HCSGC collector: ZGC's concurrent mark-compact cycle (§2) extended
    with hotness tracking, weighted-live-bytes EC selection, lazy relocation
    and hot/cold segregation (§3).

    The collector owns the good-colour state machine, the mark work list, EC
    selection and the relocation machinery.  "Concurrency" is cooperative:
    the embedding VM calls {!gc_work} with a cycle budget whenever the
    mutator passes a safepoint, which models GC threads running on a spare
    core.  Mutator loads and stores enter through the barrier functions
    here; every function returns the simulated cycle cost it incurred on the
    calling thread.

    {2 Colour windows (Fig. 2)}

    STW1 flips the good colour to the next mark colour (M0/M1 alternating);
    STW3 flips it to R.  A pointer whose colour is not good traps in the
    slow path: during marking it is remapped, marked and (for mutators)
    hotness-flagged; during relocation it triggers copying of objects on
    evacuation-candidate pages — by whichever thread gets there first, which
    for mutators lays objects out in access order (§3.2). *)

module Heap = Hcsgc_heap.Heap
module Heap_obj = Hcsgc_heap.Heap_obj
module Page = Hcsgc_heap.Page
module Addr = Hcsgc_heap.Addr
module Machine = Hcsgc_memsim.Machine

type t

type phase =
  | Idle  (** between cycles (relocation may still be pending under
              LAZYRELOCATE — mutators keep copying on access) *)
  | Marking  (** between STW1 and STW2 *)
  | Relocating  (** between STW3 and the end of the RE pass *)

exception Out_of_memory
exception Invalid_handle of string
(** Raised when a workload uses a handle to an object the collector has
    reclaimed — i.e. the workload broke the rooting discipline. *)

val create :
  ?sink:Gc_log.sink ->
  heap:Heap.t ->
  machine:Machine.t ->
  config:Config.t ->
  gc_core:int ->
  roots:((Heap_obj.t -> unit) -> unit) ->
  unit ->
  t
(** [sink] receives structured GC events ({!Gc_log}); defaults to
    {!Gc_log.null_sink}.

    When [config.tier_capacity_pages > 0] the collector builds the
    far-memory tier ({!tier}: [tier_capacity_pages] small pages, one
    residency granule per small page, [config.lat_far]) and attaches it
    to [machine] with {!Machine.set_tier}.  The collector demotes cold
    small pages into it at sweep, promotes far pages back to DRAM on
    barrier access (under [config.tier_promote]), and clears residency
    when a far page is freed.
    @raise Invalid_argument if the config is invalid.

    [roots] enumerates the current root set by applying its callback to
    every root, in a stable order (determinism depends on it).  An iterator
    rather than a list so enumeration allocates nothing per root — STW
    pauses walk roots on the simulation hot path. *)

val set_sink : t -> Gc_log.sink -> unit
(** Replace the event sink.  Lets instrumentation (e.g.
    {!Hcsgc_telemetry}) attach to a collector after creation; recording
    costs zero simulated cycles either way. *)

val heap : t -> Heap.t
val config : t -> Config.t

val tier : t -> Hcsgc_memsim.Tier.t option
(** The far-memory tier {!create} built, when tiering is on — read-only
    access for the verifier (per-tier byte totals round-trip against
    {!Heap.far_bytes}) and for reports. *)

val stats : t -> Gc_stats.t
val phase : t -> phase
val good_color : t -> Addr.color
val cycle_number : t -> int
(** Number of the last started cycle (0 before the first). *)

(** {2 Phase-boundary hook (heap sanitizer)}

    Every GC cycle crosses four well-defined edges at which the heap is in
    a quiescent, checkable state.  An installed hook is invoked
    synchronously at each edge — the intended consumer is
    [Hcsgc_verify.Invariants], which walks the whole heap there.  Hooks
    must only {e read} collector/heap state: they are charged no simulated
    cycles and touch no simulated caches, so a hooked run is byte-identical
    to an unhooked one. *)

type phase_edge =
  | Stw1_done  (** STW1 finished: good colour flipped to the mark colour,
                   roots seeded, phase is [Marking] *)
  | Mark_done  (** mark stack drained, still before STW2's retirement and
                   EC selection: the livemap is complete and every
                   reachable slot has been healed to the good colour *)
  | Stw3_done  (** STW3 finished: good colour is R, the EC is selected
                   (and, under LAZYRELOCATE, handed to the mutators) *)
  | Cycle_done  (** the cycle's relocation pass completed (or was deferred)
                    and the phase returned to [Idle] *)

val phase_edge_name : phase_edge -> string

val set_phase_hook : t -> (phase_edge -> unit) option -> unit
(** Install (or, with [None], remove) the phase-boundary hook.  At most one
    hook is installed at a time; installing replaces the previous one. *)

(** {2 Read-only state accessors (for the verifier)} *)

val roots_list : t -> Heap_obj.t list
(** The current root set, exactly as the collector sees it (materialised
    from the root iterator — convenience for the verifier and tests). *)

val mark_watermark : t -> int
(** The heap's {!Heap.obj_ids_issued} snapshot taken at the last STW1:
    objects with [id < mark_watermark] existed when marking started and
    must be covered by the livemap at [Mark_done]; younger objects are
    allocated during the cycle and are kept alive by roots/barriers
    instead. *)

val iter_stale_fwd_pages : t -> (Page.t -> unit) -> unit
(** Iterate the freed pages whose forwarding tables are still live (i.e.
    not yet retired at a Mark End pause) — the pages stale coloured
    pointers may still resolve through.  Each one's address range stays
    mapped to it in the page table ({!Heap.page_of_addr}) until retirement
    recycles the range. *)

(** {2 Mutator interface} *)

val alloc : t -> core:int -> nrefs:int -> nwords:int -> Heap_obj.t
(** Allocate an object (choosing the page class per Table 1) from the
    per-core bump page.  Returns the object, with the mutator cycle cost
    left in {!last_cost}, or {!Heap_obj.none} if the heap limit is hit —
    the caller should force a collection and retry.  Nothing is boxed on
    the host heap. *)

val use_handle : t -> core:int -> Heap_obj.t -> int
(** The {e handle barrier}: declares that the mutator is about to access the
    object through a VM-level handle (the analogue of a register-held
    pointer).  Maintains the to-space invariant — if the object sits on an
    evacuation-candidate page the mutator relocates it now, in access order —
    and flags hotness.  Returns the cycle cost. *)

val use_handle_page : t -> core:int -> Heap_obj.t -> Page.t
(** {!use_handle}, returning the page the object sits on afterwards (where
    {!Page.get_word} and friends find its words) with the cycle cost left
    in {!last_cost}. *)

val load_ref : t -> core:int -> Heap_obj.t -> slot:int -> Heap_obj.t option
(** [load_ref t ~core src ~slot] loads reference slot [slot] of [src] through
    the load barrier: good colour is the no-extra-work fast path; otherwise
    the slow path remaps/marks/relocates, flags hotness, and self-heals the
    slot.  Returns the referent (None for null); the cycle cost is left in
    {!last_cost} rather than returned, so the hot path never boxes a
    tuple. *)

val last_cost : t -> int
(** Cycle cost of the most recent {!load_ref}, {!use_handle_page} or
    successful {!alloc} call.  Read it immediately after the call — any
    later barrier overwrites it. *)

val last_addr : t -> int
(** Address of the object the most recent {!use_handle} or
    {!use_handle_page} validated, where it sits after the call (a
    relocation the barrier forced included).  Read it immediately after
    the call, like {!last_cost}. *)

val store_ref :
  t -> core:int -> Heap_obj.t -> slot:int -> Heap_obj.t option -> int
(** [store_ref t ~core src ~slot target] writes [target] (or null) into
    reference slot [slot] of [src] with the good colour.  During marking
    the stored referent is marked by its handle barrier ({!use_handle}),
    keeping unregistered handles from hiding objects.  Returns the cycle
    cost. *)

(** {2 GC driving (called from VM safepoints)} *)

val needs_cycle : t -> trigger:float -> bool
(** True when idle and either [trigger] × max-heap bytes have been allocated
    since the last cycle started (the deterministic stand-in for ZGC's
    allocation-rate pacing) or heap usage passed a high-water backstop. *)

val start_cycle : t -> unit
(** Perform STW1: flip the mark colour, reset per-page mark state, seed the
    mark stack from roots, and (under LAZYRELOCATE) enqueue the previous
    cycle's pending relocation set.  The pause's cost lands in
    {!total_stw_work}.
    @raise Invalid_argument if a cycle is in progress. *)

val gc_work : t -> budget:int -> unit
(** Run GC-thread work (relocation first — Fig. 3 — then marking) for up to
    [budget] cycles; performs the STW2 / EC-selection / STW3 transition and
    the end-of-cycle transition when work runs out.  Idempotent when there is
    nothing to do.  Concurrent work accumulates in {!total_gc_work}, pause
    work in {!total_stw_work}. *)

val drain : t -> unit
(** Complete the in-flight cycle; if a LAZYRELOCATE evacuation set is still
    pending afterwards, run one more full cycle so its leading RE pass
    releases the floating garbage.  Bounded by design — under
    RELOCATEALLSMALLPAGES + LAZY every cycle ends with a fresh pending set,
    so an unbounded drain would not terminate. *)

val total_gc_work : t -> int
(** Cumulative cycles of concurrent GC-thread work since creation.  The
    driving VM snapshots this (and {!total_stw_work}) around each pump and
    charges the delta — cumulative counters instead of per-call work
    records, so driving the collector allocates nothing on the host. *)

val total_stw_work : t -> int
(** Cumulative cycles of stop-the-world pause work since creation (STW
    pauses always hit wall time). *)

val in_cycle : t -> bool

val set_wall_hint : t -> int -> unit
(** Let the VM tell the collector the current wall clock, so heap-usage
    samples (§4.2's heap-usage-over-time plot) carry timestamps. *)

val cold_confidence : t -> float
(** The COLDCONFIDENCE currently in effect (the configured value unless a
    feedback loop has retuned it). *)

val set_cold_confidence : t -> float -> unit
(** Retune COLDCONFIDENCE at run time (the {!Autotuner} feedback loop,
    §4.8).  @raise Invalid_argument if HOTNESS is off or the value is
    outside [0, 1] or NaN. *)

val pending_relocation_pages : t -> int
(** Pages selected for evacuation and not yet fully evacuated (includes the
    LAZYRELOCATE carry-over while idle). *)
