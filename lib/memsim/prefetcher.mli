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
    is one bit of an OCaml int in the match table). *)

val degree : t -> int
(** Prefetch distance: the maximum number of line addresses one
    {!observe_into} call can produce (the minimum caller buffer size). *)

val observe_into : t -> int -> int array -> int
(** [observe_into t line buf] records a demand access to line-address
    [line]; when a confirmed stream matches, the line addresses to prefetch
    are written into [buf.(0 .. n-1)] (in issue order, nearest first) and
    [n] is returned, else 0.  This is the allocation-free hot path the cache
    simulators drive once per demand access — the caller owns [buf]
    (preallocated, at least [degree t] long) and inserts the returned lines
    into the cache levels.
    @raise Invalid_argument if [buf] is shorter than [degree t] or [line]
    is negative. *)

val observe : t -> int -> int list
(** [observe t line] is {!observe_into} with the result as a list (empty if
    no stream matched) — convenience for tests; allocates, so simulators
    use {!observe_into}. *)

val reset : t -> unit
(** Forget all streams (between benchmark runs). *)
