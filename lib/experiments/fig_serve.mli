(** The serving-tier figure: tail latency and SLO attribution across
    hotness configurations.

    Runs the {!Hcsgc_serve.Serve} KV workload under a set of Table 2
    configurations (default: ZGC baseline 0 and hotness configs 4, 16,
    18), [runs] repetitions each, and reports latency percentiles,
    SLO violations and their pause/service attribution per
    configuration.

    Each (configuration, run) job is a {!Runner.task} whose {!outcome}
    (SLO report + latency histogram + checksum + run metrics) is
    addressed by {!experiment_key} and {!Runner.config_key}. *)

module Serve = Hcsgc_serve.Serve
module Slo = Hcsgc_serve.Slo

val default_configs : int list
(** [\[0; 4; 16; 18\]] — baseline, relocate-all + lazy, COLDCONFIDENCE
    variants. *)

val default_slo : int
(** 15000 cycles (5 us at 3 GHz). *)

type outcome = {
  report : Slo.report;
  histogram : int array;  (** {!Slo.histogram} of the run's latencies *)
  checksum : int;
  metrics : Runner.run_metrics;
}

val outcome_to_string : outcome -> string
(** Versioned lossless payload codec (the cached representation): the
    SLO report's fields in one [format6], the histogram's counts on one
    line, the checksum, then {!Runner.metrics_to_string}. *)

val outcome_of_string : string -> outcome option
(** Strict inverse of {!outcome_to_string} through {!Runner.decode}:
    [None] on any malformation, a truncation, trailing bytes, or a
    histogram that is not {!Slo.histogram_buckets} long. *)

val trigger : float
(** [0.10]: the GC trigger of every serve VM, part of every serve
    experiment key (here and in {!Fig_tier}'s serve family). *)

val experiment_key :
  ?heap:int ->
  params:Serve.params ->
  shard_domains:int ->
  slo:int ->
  unit ->
  string
(** The content-address experiment key: every result-affecting workload
    and machine knob (including the [heap] budget, default 8 MiB), seed
    normalised out (the run index is addressed separately).
    [shard_domains] is a leftover label from the retired epoch-sharded
    execution model; the end-to-end benchmark still passes [0], so it
    stays until that benchmark next changes.  Only the inline model
    exists now.
    @raise Invalid_argument if [shard_domains <> 0]. *)

val make_vm :
  params:Serve.params -> heap:int -> Hcsgc_core.Config.t -> Hcsgc_runtime.Vm.t
(** The VM of every serve run: 64 KiB pages, the scaled machine,
    [params.mutators] mutators, the {!trigger} and a [heap]-byte heap. *)

val tasks :
  ?config_ids:int list ->
  ?heap:int ->
  runs:int ->
  params:Serve.params ->
  unit ->
  outcome Runner.task array
(** Every (configuration, run) job of the sweep, each judging its run
    against {!default_slo}: configurations in order (default
    {!default_configs}), runs 0..runs-1 within each.  Repetition [i]
    reseeds the workload with [seed = i] under every configuration.
    [heap] is the VM heap budget in bytes (default 8 MiB — shrink it
    alongside scaled-down [params] or the run never paces a GC
    cycle). *)

val scaled_params : scale:int -> Serve.params
(** {!Serve.default} with keys and duration divided by [scale] (floored
    at 2000 keys / 5 Mcycles) — the figure's and smoke tests' workload. *)

val scaled_heap : scale:int -> int
(** The heap budget matching [scaled_params ~scale]: [8 MiB / scale],
    floored at 2 MiB. *)

val figure : runs:int -> scale:int -> Runner.plan
(** Render the figure over {!default_configs} at {!default_slo}: percentile table with bootstrap CIs on p99.9,
    violation attribution, and throughput.  [scale] divides the default
    workload's duration and key count (for quick smokes). *)
