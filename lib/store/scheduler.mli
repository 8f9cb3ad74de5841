(** Cost-aware submission ordering for sweep jobs.

    A FIFO queue of heterogeneous jobs produces a straggler tail: when the
    expensive jobs (a [uk]-graph configuration, a saturated-core synthetic)
    happen to sit at the back, the last worker runs one alone while the
    others idle.  The classic fix is LPT (longest processing time first):
    submit jobs in decreasing estimated cost, so the big rocks land first
    and the cheap jobs pack the gaps.  For [m] machines LPT's makespan is
    within 4/3 − 1/(3m) of optimal — and with a single worker, or with no
    estimates at all, it degrades to exactly the FIFO order.

    Estimates come from the {!Result_store} cost model (mean of prior
    observed durations per cost key).  Jobs with {e no} estimate sort
    {e first}, before all estimated jobs: an unknown job may be arbitrarily
    long, and running it early both bounds the tail and teaches the model.

    Only the {e start} order changes.  Results are still collected and
    aggregated in the caller's original job order
    ({!Hcsgc_exec.Pool.map_array_in_order}), so scheduling never affects
    output bytes — only wall-clock. *)

val order : estimate:(int -> float option) -> int -> int array
(** [order ~estimate n] is a permutation of [0 .. n-1]: first the indices
    with [estimate i = None] (in index order), then the rest by decreasing
    estimate, ties broken by index.  Deterministic for a fixed [estimate].
    [estimate] is called exactly once per index. *)
