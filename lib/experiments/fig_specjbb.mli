(** Reproduction of the SPECjbb2015 figure (§4.7, Fig. 13): throughput
    (max-jOPS-like) and latency (critical-jOPS-like) scores per
    configuration, plus the baseline heap-usage-over-time series.

    Expected shape: overlapping confidence intervals (no conclusive HCSGC
    effect — survival rate ≈ 1 %), and heap usage that grows over the run
    as the injector ramps the allocation rate.  The transaction handlers
    are real VM mutator threads.

    Each (configuration, run) job is a {!Runner.task} whose {!outcome}
    the engine stores, so warm re-renders skip the simulation. *)

module Specjbb = Hcsgc_workloads.Specjbb_sim

val fig13 : runs:int -> scale:int -> Runner.plan

val experiment_params : scale:int -> Specjbb.params
(** {!Specjbb.default} with warehouses, items and transactions per step
    divided by [scale] (floored at 2 / 200 / 100). *)

val make_vm : params:Specjbb.params -> Hcsgc_core.Config.t -> Hcsgc_runtime.Vm.t
(** The VM of every SPECjbb run: 64 KiB pages, the scaled machine, one
    mutator per transaction handler and a 24 MiB heap. *)

type outcome = { result : Specjbb.result; metrics : Runner.run_metrics }
(** What one job stores: the workload's scores plus its run metrics. *)

val outcome_to_string : outcome -> string
(** Versioned, lossless payload codec ([%h] floats). *)

val outcome_of_string : string -> outcome option
(** Strict inverse of {!outcome_to_string} through {!Runner.decode}:
    [None] on any malformation, a truncation or trailing bytes. *)

val tasks : runs:int -> params:Specjbb.params -> outcome Runner.task array
(** Every (Table 2 configuration, run) job, configurations in table
    order, runs 0..runs-1 within each. *)
