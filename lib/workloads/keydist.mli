(** Shared key-distribution generators for request-driven workloads.

    Every workload that asks "which key next?" — the multi-mutator array
    walker, the serving tier — draws from one of these distributions, so
    skew is specified once and content-address keys can name it
    unambiguously ({!spec_key}).

    Sampling consumes randomness only from the {!Hcsgc_util.Rng} the caller
    passes, in a fixed number of draws per sample, so a migrated workload
    that previously in-lined the same arithmetic produces byte-identical
    key sequences (pinned by the regression tests). *)

type spec =
  | Uniform  (** every key equally likely *)
  | Hotset of { hot_keys : int; hot_bias : float }
      (** with probability [hot_bias], a key from the [hot_keys]-sized
          scattered hot set ([rank * 31 mod key_space] — the historical
          generator of an earlier LRU cache workload, kept bit-for-bit);
          otherwise uniform *)
  | Zipfian of { theta : float }
      (** YCSB-style Zipf over ranks 0..key_space-1 (rank 0 hottest);
          [theta] in [\[0, 1)], typically 0.99 *)
  | Sequential of { stride : int }
      (** deterministic cyclic sweep: consecutive samples advance the
          cursor by [stride] (scan-heavy request streams); consumes no
          randomness *)

type t

val validate : spec -> key_space:int -> unit
(** Raise what {!create} raises on these arguments, without building the
    distribution (a Zipfian one sums [key_space] powers).
    @raise Invalid_argument on [key_space <= 0], a [Hotset] with
    non-positive [hot_keys] or bias outside [\[0, 1\]], a [Zipfian] theta
    outside [\[0, 1)], or a [Sequential] stride that is not positive. *)

val create : spec -> key_space:int -> t
(** @raise Invalid_argument as {!validate}. *)

val spec : t -> spec
val key_space : t -> int

val sample : t -> Hcsgc_util.Rng.t -> int
(** The next key, in [\[0, key_space)].  [Sequential] ignores the RNG and
    advances its internal cursor. *)

val spec_key : spec -> string
(** Stable rendering for content-address keys, e.g. ["zipf(0x1.fae1...)"];
    two specs that can produce different key streams render
    differently. *)

val spec_of_string : string -> (spec, string) result
(** Parse a CLI spelling: ["uniform"], ["hotset:HOT,BIAS"],
    ["zipf"] / ["zipf:THETA"], ["seq"] / ["seq:STRIDE"]. *)
