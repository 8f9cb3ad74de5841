(** A fixed-size pool of OCaml 5 [Domain]s executing a queue of thunks.

    The experiment stack uses this to fan independent (configuration, run)
    jobs across cores.  Design points:

    - {b Fixed size.} [create ~jobs] spawns exactly [jobs] worker domains
      when [jobs > 1]; [jobs <= 1] spawns {e no} domains and every thunk
      runs immediately on the submitting domain — the sequential in-process
      path, bit-identical to a plain [List.map].
    - {b Ordered results.} {!map_array_in_order} returns results in
      input order regardless of submission or completion order, so
      aggregation is deterministic under any scheduling.
    - {b Exception transparency.} An exception raised by a thunk is
      captured together with its backtrace and re-raised (with that
      backtrace) from {!await} / {!map_array_in_order} on the submitting
      domain.

    Thunks must not themselves block on promises from the same pool
    (workers do not steal), and anything they share must be domain-safe. *)

type t
(** A pool handle.  Usable from the domain that created it. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [1, 16] — the default
    for the CLIs' [--jobs].  The [HCSGC_JOBS] environment variable, when it
    parses as a positive integer, overrides both the count and the clamp
    (the escape hatch for CI runners and >16-core machines); anything else
    in the variable is ignored. *)

val create : jobs:int -> t
(** [create ~jobs] starts [max 1 jobs] workers ([jobs <= 1]: none). *)

val shutdown : t -> unit
(** Drain outstanding tasks, join all workers.  Idempotent.  Submitting
    to a shut-down pool raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and guarantees
    {!shutdown} on exit, including exceptional exit. *)

type 'a promise
(** The eventual result of a submitted thunk. *)

val async : t -> (unit -> 'a) -> 'a promise
(** Submit a thunk.  With [jobs <= 1] the thunk runs right here, right
    now, on the calling domain. *)

val await : 'a promise -> 'a
(** Block until the thunk finished; return its value or re-raise its
    exception with the original backtrace. *)

val map_array_in_order : t -> order:int array -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array_in_order t ~order f xs] is [Array.map f xs], fanned across
    the pool — results in input positions — with thunks {e submitted} to
    the queue in the sequence [xs.(order.(0)), xs.(order.(1)), ...].
    [order] must be a permutation of the indices of [xs] (checked;
    @raise Invalid_argument otherwise).  If thunks raise, the failure
    re-raised is the first in input order, whatever the submission order.

    This is the hook cost-aware schedulers use
    ({!Hcsgc_store.Scheduler}): submission order decides which jobs the
    workers pick up first and hence the sweep's makespan, while result
    order — and therefore every output byte — stays fixed.  With
    [jobs <= 1] thunks run at submission, so [order] is then also the
    execution order. *)
