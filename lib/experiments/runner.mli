(** Running a workload across Table 2's configurations, collecting the
    metrics §4.2 plots: execution time, cache statistics and GC statistics.

    A sweep is expanded into an explicit list of {!job}s — one per
    (configuration, repetition) pair, each independent and
    seed-deterministic — and run by the one sweep engine, {!sweep}, which
    every cached sweep in the experiment stack shares.  Jobs are
    {e content-addressed}: a {!Hcsgc_store.Fingerprint} of the
    experiment's parameter {!field:experiment.key}, the configuration
    knobs, the run seed and the verify flag names each job's metrics, and
    an optional {!cache} serves repeats from a persistent
    {!Hcsgc_store.Result_store}.  Results are aggregated in job order
    whatever the completion order and whether computed or cached, so
    output is byte-identical at any [--jobs], warm or cold. *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config

type run_metrics = {
  wall : float;  (** simulated execution time (cycles) *)
  loads : float;  (** whole-process demand loads *)
  l1_misses : float;
  llc_misses : float;
  mut_l1_misses : float;  (** mutator-core-only (see DESIGN.md) *)
  mut_llc_misses : float;
  far_loads : float;  (** demand loads served by the far tier (0 if off) *)
  gc_cycle_count : int;
  ec_median : float;  (** median small pages in EC per cycle *)
  reloc_mut : int;
  reloc_gc : int;
  pages_demoted : int;  (** cold pages demoted to the far tier *)
  pages_promoted : int;  (** far pages promoted back to DRAM *)
  heap_samples : (int * int) list;  (** (wall, used bytes) *)
}

val collect : Vm.t -> run_metrics
(** Snapshot a finished VM. *)

type experiment = {
  name : string;  (** display name for progress lines and figure titles *)
  key : string;
      (** Stable {e parameter} key for content addressing: must spell out
          every workload knob that can change the metrics (element counts,
          scale, phase structure, heap size, dataset, …), unlike [name],
          which may omit detail.  Two experiments whose jobs could produce
          different metrics must have different keys; cosmetic renames
          should leave [key] unchanged so cached sweeps survive them. *)
  make_vm : Config.t -> Vm.t;  (** fresh VM per run *)
  workload : Vm.t -> run:int -> unit;  (** [run] indexes the repetition *)
}

type job = { exp : experiment; config_id : int; run : int }
(** One unit of work: repetition [run] of [exp] under Table 2
    configuration [config_id].  Jobs share nothing — {!execute} builds a
    fresh VM — so any subset may run concurrently. *)

val jobs_of : ?config_ids:int list -> runs:int -> experiment -> job list
(** Expand a sweep into its jobs, in deterministic order: configurations
    in the given order (default: all 19 of Table 2), repetitions 0..runs-1
    within each. *)

(** {2 The result store} *)

type cache = {
  store : Hcsgc_store.Result_store.t;
  refresh : bool;
      (** Ignore existing entries: recompute every job and overwrite its
          entry (the [--refresh] CLI flag). *)
}

val cache : ?refresh:bool -> dir:string -> unit -> cache
(** Open (creating if needed) the result store at [dir].  [refresh]
    defaults to [false]. *)

val default_cache_dir : string
(** ["_hcsgc_cache"] — the CLIs' default store location. *)

type renderer =
  ?runs:int -> ?scale:int -> ?jobs:int -> ?cache:cache ->
  Format.formatter -> unit
(** The one shape of a simulated artefact, a figure or an ablation:
    [runs] repetitions, workload size divided by [scale], [jobs] worker
    domains and an optional result store. *)

val config_key : int -> string
(** Lossless rendering of a Table 2 configuration's knob {e values} (not
    its id — ids 0 and 1 share a knob vector, hence a key), the
    [~config] component of every job fingerprint.  Exposed for
    experiments that store custom payloads (e.g. the serving tier's SLO
    reports) under the same addressing scheme. *)

val config_value_key : Config.t -> string
(** The same lossless knob rendering for an arbitrary configuration value
    (not necessarily a Table 2 row) — what experiments sweeping custom
    knob vectors (e.g. the far-tier capacity sweep) fingerprint with. *)

val fingerprint : verify:bool -> job -> Hcsgc_store.Fingerprint.t
(** The job's content address.  Configuration knobs enter the fingerprint
    by {e value}, not by Table 2 id, so ids 0 and 1 (identical knob
    vectors) intentionally share an entry. *)

val cost_key : job -> string
(** The job's cost-model key: one per (experiment key, knob vector) —
    the granularity at which durations are predictable. *)

val decode : (Scanf.Scanning.in_channel -> 'a) -> string -> 'a option
(** [decode scan s] runs [scan] over [s] and then demands the end of
    input; [None] if [scan] fails ([Scan_failure], [Failure] or
    [End_of_file]) or leaves anything unread.  The one decoder of every
    stored payload: each payload's [scan] reads the [format6] its encoder
    writes. *)

val metrics_to_string : run_metrics -> string
(** Versioned, lossless text serialization ([%h] floats); the payload
    stored under the job's fingerprint. *)

val scan_metrics : Scanf.Scanning.in_channel -> run_metrics
(** Read one {!metrics_to_string} payload from the channel, for payloads
    that end with a job's metrics.
    @raise Scanf.Scan_failure, [Failure] or [End_of_file] on malformation. *)

val metrics_of_string : string -> run_metrics option
(** [decode scan_metrics]: the strict inverse of {!metrics_to_string},
    [None] on any malformation, a truncation or trailing bytes.
    Round-trips every value bit-exactly. *)

(** {2 The sweep engine}

    Every simulated artefact in the experiment stack — Table 2 figures,
    Fig. 13, the ablations, the serving tier, the far-tier capacity
    sweep — runs through {!sweep}.
    Callers describe each job as a {!task} and supply their payload
    codec; the engine owns lookup, scheduling, the domains, the store and
    progress. *)

type 'a task = {
  group : string;
      (** Progress line announcing the task's group (typically one
          configuration); tasks of a group share the same string. *)
  experiment : string;  (** stable parameter key, as {!field:experiment.key} *)
  config : string;  (** lossless knob rendering, as {!config_value_key} *)
  run : int;  (** repetition index *)
  compute : unit -> 'a;  (** simulate; a pure function of the fields above *)
}
(** One content-addressed unit of work.  Its fingerprint is
    [Fingerprint.make ~experiment ~config ~run ~verify] and its cost key
    [experiment ^ "#" ^ config]. *)

val task_fingerprint : verify:bool -> 'a task -> Hcsgc_store.Fingerprint.t
(** The task's content address, as {!sweep} looks it up and stores it. *)

val sweep :
  ?jobs:int ->
  ?cache:cache ->
  ?progress:(string -> unit) ->
  verify:bool ->
  encode:('a -> string) ->
  decode:(string -> 'a option) ->
  'a task array ->
  'a array
(** Run every task and return the results in task order, bit-identical
    at any [jobs] (default 1: in-process on the calling domain) and
    whether served from [cache] or computed.

    With [cache], hits are resolved up front on the calling domain; a
    payload that fails [decode] is counted invalid
    ({!Hcsgc_store.Result_store.note_invalid}) and treated as a miss.
    Misses are submitted longest-estimated-first by the store's cost
    model ({!Hcsgc_store.Scheduler}); with no [cache] or no estimates,
    that is task order.  Each computed result is stored, [encode]d, with
    its measured duration.  [verify] enters every fingerprint; the tasks'
    [compute] closures must honour it themselves.

    [progress] receives each group's [group] line once, when the first of
    its tasks starts computing; fully cached groups stay silent.  Calls
    are serialized under a mutex, so each message arrives whole and
    [progress] need not be domain-safe, but under [~jobs:n] they come
    from worker domains:
    [progress] must not assume it runs on the calling domain, and must
    not call back into the runner. *)

val chunks : 'k list -> size:int -> 'a array -> ('k * 'a array) list
(** [chunks keys ~size xs] pairs the [i]-th key with [xs.(i*size) ..
    xs.(i*size + size - 1)] — the regroup of a task-ordered result array
    whose tasks were expanded [size] per key.
    @raise Invalid_argument if [xs] is shorter than the keys need. *)

(** {2 Table 2 sweeps} *)

val simulate : verify:bool -> experiment -> Config.t -> run:int -> Vm.t
(** The one simulation step: fresh VM ({!field:experiment.make_vm}), the
    heap sanitizer when [verify] ({!Vm.enable_verification}), the
    workload, {!Vm.finish}.  Returns the finished VM for {!collect}. *)

val experiment_task :
  verify:bool -> group:string -> experiment -> Config.t -> run:int ->
  run_metrics task
(** Repetition [run] of an experiment under any configuration value, as a
    {!task} ({!simulate}, then {!collect}).  A task whose knob vector is
    a Table 2 row shares that {!job}'s store entry. *)

val execute : ?verify:bool -> ?cache:cache -> job -> run_metrics
(** Run one job to completion: {!simulate}, then {!collect}.  Pure
    function of the job (workloads are seeded by [run]); safe to call
    from any domain.  [verify] (default [false]) attaches the
    {!Hcsgc_verify.Invariants} heap sanitizer to the job's VM; verification
    reads state only, so verified metrics are bit-identical to unverified
    ones.

    With [cache], this is a one-task {!sweep}: a valid entry is decoded
    and returned without simulating; a miss (including a corrupt or
    undecodable entry) simulates, then stores the metrics and the
    measured duration. *)

val profile :
  ?sample_interval:int ->
  ?verify:bool ->
  ?cache:cache ->
  job ->
  run_metrics * Hcsgc_telemetry.Recorder.t
(** {!execute} with telemetry attached ({!Vm.enable_telemetry}):
    additionally returns the job's span/counter recorder, ready for the
    {!Hcsgc_telemetry} exporters.  Telemetry charges no simulated cycles,
    so the metrics equal an unprofiled {!execute} of the same job; the
    recorder is domain-local, so profiled jobs may be fanned across
    domains ({!Hcsgc_exec.Pool}) and still produce byte-identical traces
    at any [--jobs] setting.

    A profiled run always simulates (the trace cannot come from the
    store), but with [cache] it {e stores} its metrics afterwards through
    {!sweep}'s store step, seeding later sweeps. *)

val run_configs :
  ?config_ids:int list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?verify:bool ->
  ?cache:cache ->
  runs:int ->
  experiment ->
  (int * run_metrics array) list
(** Execute [runs] repetitions of the experiment under each requested
    Table 2 configuration (default: all 19) through {!sweep}.
    Deterministic: repetition [i] uses the same workload seed under every
    configuration, mirroring the paper's N VM invocations per
    configuration.  [jobs], [cache] and [progress] are {!sweep}'s; each
    configuration is one progress group.  [verify] (default false) runs
    every job under the heap sanitizer (see {!execute}); each VM gets its
    own verifier, so verified sweeps fan out across domains unchanged. *)
