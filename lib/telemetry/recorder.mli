(** The telemetry recorder: a low-overhead, bounded, in-memory store of
    {e spans} (GC phases, STW pauses, workload phases) and {e counter
    samples}, all stamped on the simulated cycle clock.

    This is the substrate behind the paper's evaluation artefacts —
    [-Xlog:gc] pause lines, `perf stat` counters, heap-usage-over-time
    plots (§4.2, Fig. 13) — generalised into one event store that the
    exporters ({!Chrome_trace}, {!Csv_export}, {!Summary}) and the
    {!Analyzer} all read.

    Recording never touches the simulated machine: it charges zero
    simulated cycles, so an instrumented run's simulated clock is
    byte-identical to an uninstrumented one (asserted by the test suite).
    Both stores are ring buffers — when full, the oldest entry is dropped
    and the drop is counted.  Spans are stored as ints only, 8 words a
    span in one flat array that starts small and doubles up to its
    capacity: names and arg keys are interned per recorder (readers get
    back strings equal to the ones recorded), a span keeps up to four args
    in place and any further ones in a side table.  Recording a span whose
    name and keys were seen before allocates nothing beyond its args
    list, and the strings only evicted spans used are dropped as new ones
    arrive.

    The recorder is not domain-safe: keep one recorder per VM, and one VM
    per worker domain (as {!Hcsgc_experiments.Runner} does), and parallel
    profiled sweeps stay deterministic. *)

type track =
  | Mutator of int
      (** one track per mutator core; recording a span on a core id
          outside [\[0, 65535)] raises [Invalid_argument] *)
  | Gc  (** the GC thread's track *)

type kind =
  | Slice  (** a duration on a track (Chrome trace ["ph":"X"]) *)
  | Instant  (** a point event (Chrome trace ["ph":"i"]) *)

type span = {
  track : track;
  kind : kind;
  name : string;
  start : int;  (** simulated wall cycles *)
  stop : int;  (** = [start] for instants *)
  args : (string * int) list;  (** extra values, exported as trace args *)
}

(** Counter sample: cumulative machine/GC counters at one instant of the
    simulated clock.  All fields are monotone totals (like perf counters);
    consumers difference them. *)
type sample = {
  wall : int;
  heap_used : int;  (** committed page bytes *)
  hot_bytes : int;  (** live bytes on pages currently flagged hot *)
  loads : int;
  stores : int;
  l1_misses : int;
  l2_misses : int;
  llc_misses : int;
  barrier_fast : int;  (** mutator barrier fast-path executions *)
  barrier_slow : int;
  reloc_mutator : int;  (** objects relocated by mutator threads *)
  reloc_gc : int;
  reloc_bytes : int;
  far_loads : int;
      (** LLC misses served from the far tier (0 when tiering is off) —
          the per-tier miss time series of the far-memory experiments *)
}

type t

val create : ?span_capacity:int -> ?sample_capacity:int -> unit -> t
(** Fresh recorder; default capacities 65536 spans / 16384 samples
    (oldest dropped first). *)

(** {2 Recording} *)

val begin_span :
  t -> ?args:(string * int) list -> track -> name:string -> wall:int -> unit
(** Open a span on a track.  Spans on one track nest like a stack. *)

val end_span : t -> ?args:(string * int) list -> track -> wall:int -> unit
(** Close the innermost open span on the track (no-op when none is open).
    [args] are appended to the span's begin-time args. *)

val end_named :
  t -> ?args:(string * int) list -> track -> name:string -> wall:int -> unit
(** Close the innermost open span named [name] on the track, and first every
    span nested inside it (those with no extra args); no-op when no span of
    that name is open.  [args] are appended to the named span's args. *)

val complete_span :
  t -> ?args:(string * int) list -> track -> name:string -> wall:int ->
  dur:int -> unit
(** Record an already-delimited span (e.g. an STW pause of known cost). *)

val instant :
  t -> ?args:(string * int) list -> track -> name:string -> wall:int -> unit

val close_all : t -> wall:int -> unit
(** Close every open span on every track (end-of-run cleanup, so an
    in-flight GC cycle still renders). *)

val sample : t -> sample -> unit

val on_gc_event : t -> Hcsgc_core.Gc_log.event -> unit
(** Translate one structured GC event into trace form on the {!Gc} track:
    cycles and concurrent phases become nested slices, STW pauses become
    slices of their cost, mark/EC/deferral milestones become instants. *)

(** {2 Reading} *)

val fold_spans :
  ?with_args:bool ->
  t ->
  init:'a ->
  ('a -> track -> kind -> name:string -> start:int -> stop:int ->
   args:(string * int) list -> 'a) ->
  'a
(** Fold over the closed spans, oldest surviving first (completion order),
    reading the ring in place: no {!span} record is built.  [args] is the
    span's arg list only when [with_args] is [true] (default [false]);
    otherwise [[]] and nothing is allocated for it.  Every other reader
    goes through this one. *)

val spans : t -> span list
(** Closed spans, oldest surviving first (completion order). *)

val samples : t -> sample list

val dropped_spans : t -> int
val dropped_samples : t -> int

val tracks : t -> track list
(** Tracks that recorded at least one span, GC first, then mutators by
    core id. *)

val clear : t -> unit
