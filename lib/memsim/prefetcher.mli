(** A hardware-style stream prefetcher.

    The paper's core claim is that laying objects out in mutator access order
    is "prefetching friendly" (§1, §3): sequential line accesses let the
    hardware prefetcher hide memory latency.  This module models a
    multi-stream next-N-line prefetcher: it watches the demand-access line
    stream, detects monotone (ascending or descending) strides of one line,
    and once a stream is confirmed issues prefetches [degree] lines ahead.

    Replacement is LRU over the stream slots, and a demand access extends
    the first stream, in slot order, whose last line is one away in its
    direction.  Neither question needs a scan: slots fill as a prefix and
    sit on a recency list whose tail is the victim, and a 64-entry table of
    stream bitmasks, keyed by last line mod 64, names the few candidate
    streams an access can extend. *)

type t

val create : ?streams:int -> ?degree:int -> ?confirm:int -> unit -> t
(** [create ()] uses 16 stream slots, degree 4, and 2 accesses to confirm a
    stream — roughly an L2 stream prefetcher on a client core.
    @raise Invalid_argument if [streams < 1] or [streams > 62] (a stream
    is one bit of an OCaml int in the match table), or if [degree < 1] or
    [confirm < 1]. *)

val degree : t -> int
(** Prefetch distance: the number of lines a confirmed stream fetches
    ahead of the access. *)

val step : t -> int -> int
(** [step t line] records a demand access to line-address [line] and
    returns the stride of the confirmed stream it extends, [1] ascending
    or [-1] descending, else [0].  A stride [d] asks for the lines
    [line + d], [line + 2d], ..., [line + degree t * d], nearest first.
    This is the allocation-free hot path the cache simulators drive once
    per demand access; the caller inserts those lines into its cache
    levels.
    @raise Invalid_argument if [line] is negative. *)

val observe : t -> int -> int list
(** [observe t line] is {!step} with the lines to prefetch as a list, in
    issue order (empty if no confirmed stream matched) — convenience for
    tests; allocates, so simulators use {!step}. *)

val reset : t -> unit
(** Forget all streams (between benchmark runs). *)
