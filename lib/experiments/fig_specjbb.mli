(** Reproduction of the SPECjbb2015 figure (§4.7, Fig. 13): throughput
    (max-jOPS-like) and latency (critical-jOPS-like) scores per
    configuration, plus the baseline heap-usage-over-time series.

    Expected shape: overlapping confidence intervals (no conclusive HCSGC
    effect — survival rate ≈ 1 %), and heap usage that grows over the run
    as the injector ramps the allocation rate.  The transaction handlers
    are real VM mutator threads. *)

val fig13 :
  ?runs:int -> ?scale:int -> ?jobs:int -> Format.formatter -> unit

val experiment_params : scale:int -> Hcsgc_workloads.Specjbb_sim.params
