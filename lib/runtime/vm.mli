(** The user-facing managed runtime: allocation, barriered field access,
    roots, and the cooperative mutator/GC schedule.

    {2 Execution-time model}

    Every mutator operation is charged simulated cycles (base cost + cache
    latencies + any barrier slow-path work, including relocation copying the
    mutator performs).  GC-thread work accumulates separately; it runs "for
    free" on a spare core, unless the VM is created [~saturated:true], which
    models the paper's single-core experiment (Fig. 6) where GC work competes
    with the mutator for CPU and is added to wall time.  Stop-the-world
    pauses always hit wall time.

    {2 Rooting discipline}

    Objects are reached through int handles ({!Hcsgc_heap.Heap_obj.t}) into
    the heap's object arena; handles survive relocation.  Any object the
    workload holds across an allocation must be reachable from a registered
    root (or a pushed local), otherwise the collector may reclaim it and
    later use raises {!Hcsgc_core.Collector.Invalid_handle} — also after
    the object's arena slot has been reused.  Objects are also kept alive
    by being stored to or loaded from during a cycle. *)

module Heap_obj = Hcsgc_heap.Heap_obj
module Collector = Hcsgc_core.Collector

type t

val env_verify : unit -> bool
(** Whether the [HCSGC_VERIFY] environment variable asks for verified
    VMs ([1]/[true]/[yes]): the default of {!create}'s [verify]. *)

val create :
  ?layout:Hcsgc_heap.Layout.t ->
  ?machine_config:Hcsgc_memsim.Hierarchy.config ->
  ?saturated:bool ->
  ?trigger:float ->
  ?autotune:bool ->
  ?mutators:int ->
  ?verify:bool ->
  config:Hcsgc_core.Config.t ->
  max_heap:int ->
  unit ->
  t
(** [create ~config ~max_heap ()] builds a VM with a [max_heap]-byte heap.
    [machine_config] overrides the cache geometry (default: the paper's
    client machine; benches use a proportionally scaled-down hierarchy to
    match their scaled-down working sets).
    [saturated] (default false) pins mutator and GC to one core.  GC
    threads get one cycle of work per mutator cycle.
    [trigger] (default 0.25) is the fraction of the heap that must be
    allocated since the last cycle start before a new GC cycle begins
    (allocation-budget pacing, the deterministic stand-in for ZGC's
    allocation-rate heuristics).
    [autotune] (default false) enables the §4.8 feedback loop: the mutator's
    L1 miss rate is sampled once per GC cycle and COLDCONFIDENCE retuned by
    {!Hcsgc_core.Autotuner} — requires a HOTNESS-enabled config.
    [mutators] (default 1) is the number of logical mutator threads, each
    with its own core (private L1/L2, own relocation/allocation target
    pages, own clock); the workload interleaves them cooperatively by
    passing [~m] to the mutator operations.  Wall time follows the slowest
    mutator.  Incompatible with [saturated].
    [verify] installs the {!Hcsgc_verify.Invariants} heap sanitizer (with
    the mark-sweep oracle) for the whole run; when omitted it defaults to
    the [HCSGC_VERIFY] environment variable ([1]/[true]/[yes]), the hook CI
    uses to rerun everything verified.  Verification is read-only: a
    verified run's results and traces are byte-identical to an unverified
    one; corruption raises {!Hcsgc_verify.Invariants.Violation} at the
    next GC phase edge. *)

(** {2 Mutator operations} *)

val alloc : ?m:int -> t -> nrefs:int -> nwords:int -> Heap_obj.t
(** Allocate a managed object.  May run GC (this is the safepoint where
    cycles start).  [m] selects the mutator thread (default 0).
    @raise Collector.Out_of_memory if the heap is exhausted even after a
    forced collection. *)

val load_ref : ?m:int -> t -> Heap_obj.t -> int -> Heap_obj.t option
(** Barriered reference-slot load. *)

val store_ref : ?m:int -> t -> Heap_obj.t -> int -> Heap_obj.t option -> unit

val load_word : ?m:int -> t -> Heap_obj.t -> int -> int
(** Payload word load (touches memory through the cache simulator). *)

val store_word : ?m:int -> t -> Heap_obj.t -> int -> int -> unit

val touch : ?m:int -> t -> Heap_obj.t -> unit
(** Access an object without reading a specific field (header touch). *)

val work : ?m:int -> t -> int -> unit
(** Charge [n] cycles of pure compute (no memory traffic). *)

(** {2 Telemetry}

    The {!Hcsgc_telemetry} integration: an optional recorder of spans and
    counter samples on the simulated clock.  Recording is pure
    observation — it charges no simulated cycles and touches no simulated
    caches, so an instrumented run's clocks, GC schedule and statistics
    are identical to an uninstrumented one. *)

val enable_telemetry :
  ?sample_interval:int -> t -> Hcsgc_telemetry.Recorder.t
(** Attach a telemetry recorder (idempotent — returns the existing one on
    a second call).  GC events are translated onto the recorder's GC
    track through the collector's one {!Hcsgc_core.Gc_log.sink};
    machine counters are sampled every [sample_interval] wall cycles
    (default 50000) plus once at every GC cycle boundary, so per-cycle
    deltas are exact. *)

val telemetry : t -> Hcsgc_telemetry.Recorder.t option

val enable_verification : ?oracle:bool -> t -> unit
(** Attach the heap sanitizer after creation (the [--verify] flag's entry
    point): {!Hcsgc_verify.Invariants.install} on this VM's collector.
    [oracle] (default [true]) also runs the differential mark-sweep
    reachability oracle at every Mark End. *)

val span_begin : ?m:int -> t -> string -> unit
(** Open a workload span on mutator [m]'s track (e.g. a benchmark phase).
    No-op without telemetry. *)

val span_end : ?m:int -> t -> unit

val with_span : ?m:int -> t -> string -> (unit -> 'a) -> 'a
(** Run the callback inside a span (closed on exceptions too). *)

(** {2 Roots} *)

val add_root : t -> Heap_obj.t -> unit
val remove_root : t -> Heap_obj.t -> unit

val with_local : t -> Heap_obj.t -> (unit -> 'a) -> 'a
(** Keep a handle rooted for the dynamic extent of the callback. *)

val push_local : t -> Heap_obj.t -> unit
val local_frame : t -> (unit -> 'a) -> 'a
(** Run the callback; locals pushed inside are dropped afterwards. *)

(** {2 Measurement} *)

val wall_cycles : t -> int
(** The run's simulated execution time. *)

val mutator_cycles : t -> int
(** The slowest mutator thread's clock (equals the only mutator's clock in
    the single-threaded case). *)

val mutator_count : t -> int

val mutator_clock : t -> m:int -> int
(** A specific mutator thread's simulated cycles. *)

val gc_cycles : t -> int
val stw_cycles : t -> int
val ops : t -> int

val counters : t -> Hcsgc_memsim.Hierarchy.counters
(** Machine-wide cache counters (mutator + GC, like whole-process perf). *)

val tier : t -> Hcsgc_memsim.Tier.t option
(** The far-memory tier, when the config enables tiering
    ([tier_capacity_pages > 0]). *)

val far_loads : t -> int
(** Machine-wide demand loads served by the far tier (0 with tiering off). *)

val mutator_counters : t -> Hcsgc_memsim.Hierarchy.counters
(** Counters summed over the mutator cores only (unavailable to the paper's
    methodology; used for analysis and tests). *)

val autotuned_cold_confidence : t -> float option
(** The feedback loop's current COLDCONFIDENCE, when autotuning is on. *)

val gc_stats : t -> Hcsgc_core.Gc_stats.t
val heap : t -> Hcsgc_heap.Heap.t
val collector : t -> Collector.t
val config : t -> Hcsgc_core.Config.t

val finish : t -> unit
(** Complete any in-flight GC cycle (without forcing relocation of a pending
    lazy set) so end-of-run statistics are stable. *)

val full_gc : t -> unit
(** Force two complete GC cycles (the [System.gc()] analogue): the first
    collects, the second releases pages that only became candidates after
    the first — leaving heap usage a faithful measure of the live set.
    GC work done here is charged to wall time (the mutator requested it). *)
