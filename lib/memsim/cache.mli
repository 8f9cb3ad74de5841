(** A single level of set-associative cache with LRU replacement.

    Addresses are byte addresses in the simulated virtual address space; the
    cache operates on line-granular tags.  This module is purely about
    hit/miss bookkeeping — latencies and inter-level traffic live in
    {!Machine}.

    Each set keeps its tags in recency order (move-to-front): rank 0 is the
    most recently used line and the last valid rank the least recently
    used.  Rank 0 of every set sits in one dense array, one int per set,
    and ranks 1 and below in another.  A hit on rank 0 costs one tag
    compare in the dense array; anything else takes one pass that moves
    the line to rank 0, shifting older tags down one rank and dropping the
    last one on a miss in a full set.  True LRU is fully determined by
    recency order, so hits, misses and evictions are exactly true LRU's. *)

type t

type geometry = {
  size_bytes : int;  (** total capacity *)
  ways : int;  (** associativity *)
  line_bytes : int;  (** cache line size, a power of two (64 in the paper) *)
}

val create : geometry -> t
(** @raise Invalid_argument if the geometry is not a power-of-two number of
    sets or the line size is not a power of two. *)

val geometry : t -> geometry

val line_of_addr : t -> int -> int
(** [line_of_addr t addr] is the line-granular address ([addr / line_bytes]). *)

val access : t -> int -> bool
(** [access t line] looks up line-address [line]; on hit, refreshes LRU and
    returns [true]; on miss, inserts [line] (evicting the LRU way) and returns
    [false]. *)

val is_mru : t -> int -> bool
(** [is_mru t line] is whether [line] is the most recently used line of its
    set: the one tag compare {!access} makes first.  No side effects; when
    it holds, {!access} and {!insert} change nothing. *)

val probe : t -> int -> bool
(** [probe t line] is a lookup with no side effects (no LRU update, no fill). *)

val insert : t -> int -> unit
(** [insert t line] fills [line] without counting as a demand access (used for
    prefetches).  No-op if already present (but refreshes LRU). *)

val invalidate_all : t -> unit
(** Empty the cache (between benchmark runs). *)
