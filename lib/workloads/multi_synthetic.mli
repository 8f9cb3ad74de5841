(** A many-mutator synthetic workload: [mutators] cooperative threads, each
    with a private element array (sized to overflow a private L1 but fit
    the shared hierarchy), walked in a per-thread pseudo-random order with
    a trickle of garbage allocation.

    Threads interleave in round-robin slices — thread [m] runs its whole
    slice of a round before thread [m+1] — so the logical schedule is
    deterministic by construction.  Per-thread checksums make any
    cross-thread mixup observable.  Tests use it to check that
    verification stays transparent with many mutators sharing the heap. *)

type params = {
  mutators : int;  (** cooperative threads; must be <= the VM's mutators *)
  elements_per_mutator : int;
  element_words : int;  (** payload words per element *)
  rounds : int;
  accesses_per_round : int;  (** per thread per round *)
  garbage_every : int;  (** allocate garbage every n accesses (0 = never) *)
  garbage_words : int;
  seed : int;
}

type result = {
  checksums : int array;  (** one per mutator; order- and value-sensitive *)
  accesses : int;  (** total element accesses across all threads *)
}

val default : params
(** 8 mutators, 4k elements each — a working set per thread that misses a
    scaled L1 while the 8-thread union pressures the shared LLC. *)

val run : Hcsgc_runtime.Vm.t -> params -> result
(** Deterministic in [params] (and the VM's configuration) alone.
    @raise Invalid_argument on non-positive sizes or [mutators] exceeding
    [Vm.mutator_count]. *)
