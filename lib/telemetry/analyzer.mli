(** Profile analysis over a {!Recorder}: STW-pause percentiles, minimum
    mutator utilisation (MMU) over sliding windows, and the per-cycle
    relocation-attribution timeline.

    These are the latency questions the ROADMAP's serving goal asks and the
    paper's aggregate tables cannot answer: {e when} does a configuration
    win, how long do its worst pauses cluster, and who (mutator or GC
    threads) paid for relocation in each cycle. *)

type pause_stats = {
  count : int;
  total : int;  (** summed pause cycles *)
  p50 : int;
  p95 : int;
  p99 : int;
  p999 : int;  (** the tail percentile the serving-tier SLOs report *)
  max : int;
}

val percentile : int list -> pct:float -> int
(** Nearest-rank percentile of a non-empty list (sorted internally):
    [percentile xs ~pct:50.0] is the median sample.
    @raise Invalid_argument on an empty list or [pct] outside (0, 100]. *)

val percentile_sorted : int array -> pct:float -> int
(** {!percentile} of an array already sorted ascending, read in place: sort
    once, then read several ranks.
    @raise Invalid_argument on an empty array or [pct] outside (0, 100]. *)

val pause_intervals : Recorder.t -> (int * int) list
(** [(start, stop)] of each STW pause slice, chronological. *)

val pause_stats : Recorder.t -> pause_stats
(** Zeroes when no pause was recorded. *)

val coalesce : (int * int) list -> (int * int) list
(** Sort [(start, stop)] intervals, drop empty ones, and merge overlapping
    or touching neighbours — the normal form {!overlap} and {!mmu} reduce
    to before summing. *)

val overlap : window:int * int -> (int * int) list -> int
(** [overlap ~window:(w0, w1) intervals] is the total length of
    [\[w0, w1\]] covered by the intervals — the request-window ∩
    pause-intervals semantics of pause-attributed SLO accounting.
    Intervals are {!coalesce}d first, so the result is in
    [\[0, w1 - w0\]] even when inputs overlap each other.  An empty or
    inverted window yields 0. *)

val overlap_sorted : (int * int) array -> window:int * int -> int
(** {!overlap} over intervals already in {!coalesce} normal form, as an
    array.  A binary search finds the first interval ending after [w0], so
    a window costs O(log n) plus the intervals it meets — the per-request
    form for SLO attribution over many pauses. *)

val mmu : window:int -> total:int -> pauses:(int * int) list -> float
(** Minimum mutator utilisation: the worst-case fraction of any
    [window]-cycle sliding window of [\[0, total\]] not spent in an STW
    pause.  [window >= total] degenerates to whole-run utilisation.
    Pauses are [(start, stop)] intervals; overlapping or touching
    intervals are coalesced first (simulated pauses can share a wall
    stamp), so the result is always within [\[0, 1\]].  1.0 when
    [total = 0].
    @raise Invalid_argument when [window <= 0]. *)

val last_wall : Recorder.t -> int
(** The latest span-edge wall clock: the largest [stop] among the surviving
    spans, 0 when there are none. *)

val mmu_of : Recorder.t -> window:int -> float
(** {!mmu} over the recorder's pause slices, with [total] the latest
    span-edge wall clock. *)

type attribution_point = {
  cycle : int;
  wall : int;  (** wall at the cycle's start *)
  reloc_mutator : int;  (** objects the mutators copied in this epoch *)
  reloc_gc : int;
  reloc_bytes : int;
}

val attribution : Recorder.t -> attribution_point list
(** Relocation attribution per GC epoch: for each recorded cycle span
    ["GC(n)"], the growth of the relocation counters from its start to the
    next cycle's start (or the final sample) — so lazily-deferred
    relocation work done by mutators between cycles is charged to the
    cycle that deferred it.  Accurate to the nearest counter sample; the
    VM samples at every cycle boundary, making the edges exact. *)
