(** Fan independent jobs across OCaml 5 [Domain]s, results in input order.

    The experiment stack uses this to run a sweep's (configuration, run)
    jobs on several cores.  Jobs must not share anything that is not
    domain-safe. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [1, 16] — the default
    for the CLI's [--jobs].  The [HCSGC_JOBS] environment variable, when it
    parses as a positive integer, overrides the count and the clamp to 16
    (the escape hatch for CI runners and >16-core machines), up to 127:
    OCaml 5.1 allows 128 domains per process, the calling one included.
    Anything else in the variable is ignored. *)

val map_array_in_order :
  jobs:int -> order:int array -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array_in_order ~jobs ~order f xs] is [Array.map f xs] with the
    calls started in the sequence [xs.(order.(0)), xs.(order.(1)), ...].
    [order] must be a permutation of the indices of [xs] (checked;
    @raise Invalid_argument otherwise).

    With [jobs > 1] it spawns [min jobs n] domains that claim the next
    entry of [order] until none is left, then joins them; with
    [jobs <= 1] the calls run in [order] on the calling domain.  Either
    way every call runs, each result is stored at its input index, and if
    calls raise, the failure re-raised (with its own backtrace) is the
    first in input order, whatever the start order.

    This is the hook cost-aware schedulers use ({!Hcsgc_store.Scheduler}):
    start order decides which jobs the domains pick up first and hence
    the sweep's makespan, while result order — and therefore every output
    byte — stays fixed. *)
