(** Running a workload across Table 2's configurations, collecting the
    metrics §4.2 plots: execution time, cache statistics and GC statistics.

    Every simulated artefact is a {!plan}: {!task}s with their payload
    codec, and a pure render of their results.  One engine, {!sweep},
    runs tasks content-addressed by a {!Hcsgc_store.Fingerprint}, each
    distinct one once, optionally through a persistent
    {!Hcsgc_store.Result_store}, and hands results back in task order, so
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

    Callers describe each job as a {!task} with its payload codec; the
    engine owns lookup, deduplication, scheduling, the domains, the
    store and progress. *)

type 'a task = {
  group : string;
      (** Progress line announcing the task's group (typically one
          configuration); tasks of a group share the same string. *)
  experiment : string;  (** stable parameter key, as {!field:experiment.key} *)
  config : string;  (** lossless knob rendering, as {!config_value_key} *)
  run : int;  (** repetition index *)
  compute : verify:bool -> 'a;
      (** simulate, under the heap sanitizer when [verify]; a pure
          function of the fields above *)
}
(** One content-addressed unit of work.  Its fingerprint is
    [Fingerprint.make ~experiment ~config ~run ~verify] and its cost key
    [experiment ^ "#" ^ config].  Tasks with one fingerprint must share
    a payload codec: the engine computes one of them and hands its
    payload to the others. *)

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
    at any [jobs] (default 1: on the calling domain) and whether served
    from [cache] or computed.

    Each distinct fingerprint is looked up once and computed at most
    once; the other tasks at it [decode] its payload.  With [cache], hits
    are resolved up front; a payload that fails [decode] is counted
    invalid ({!Hcsgc_store.Result_store.note_invalid}), recomputed and
    overwritten.  Misses start longest-estimated-first by the store's
    cost model ({!Hcsgc_store.Scheduler}), else in task order, and each
    is stored, [encode]d, with its measured duration.  [verify] enters
    every fingerprint and is passed to every [compute].

    [progress] receives each group's line once, when the first of its
    tasks starts computing.  Calls are serialized, so [progress] need
    not be domain-safe, but under [~jobs:n] they come from worker
    domains, and must not call back into the runner. *)

type plan =
  | Plan : {
      tasks : 'a task array;
      encode : 'a -> string;
      decode : string -> 'a option;
      render : 'a array -> Format.formatter -> unit;
    }
      -> plan
(** An artefact: its tasks with their payload codec, and a pure render
    of their results in task order. *)

val static : (Format.formatter -> unit) -> plan
(** A plan with no tasks, e.g. a table. *)

val render :
  ?jobs:int ->
  ?cache:cache ->
  ?progress:(string -> unit) ->
  verify:bool ->
  plan list ->
  Format.formatter ->
  unit
(** Run the tasks of every plan in one {!sweep}, so equal tasks of
    different plans run once and the longest jobs of all start first;
    then render each plan, in list order. *)

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

val measure :
  experiment -> Config.t -> run:int -> verify:bool -> run_metrics
(** {!simulate}, then {!collect}: a Table 2 job's [compute]. *)

val tasks :
  runs:int ->
  key:string ->
  (Config.t -> run:int -> verify:bool -> 'a) ->
  (string * Config.t) list ->
  'a task array
(** [runs] repetitions of experiment [key] under each (progress group,
    configuration), in order, runs 0..runs-1 within each.  A task whose
    knob vector is a Table 2 row shares that row's fingerprint. *)

val table2_tasks :
  ?config_ids:int list ->
  runs:int ->
  name:string ->
  key:string ->
  (Config.t -> run:int -> verify:bool -> 'a) ->
  'a task array
(** {!tasks} under each Table 2 configuration (default: all 19), each
    its own progress group, [name] and the configuration. *)

val execute : ?verify:bool -> ?cache:cache -> job -> run_metrics
(** Run one job to completion: {!simulate}, then {!collect}.  Pure
    function of the job (workloads are seeded by [run]); safe to call
    from any domain.  [verify] (default [false]) attaches the
    {!Hcsgc_verify.Invariants} heap sanitizer to the job's VM; verification
    reads state only, so verified metrics are bit-identical to unverified
    ones.

    This is a one-task {!sweep}. *)

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
    store); with [cache] it stores its metrics, as under [refresh]. *)

val run_configs :
  ?config_ids:int list ->
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
    configuration.  [jobs] and [cache] are {!sweep}'s.  [verify]
    (default false) runs every job under the heap sanitizer (see
    {!execute}); each VM gets its own verifier, so verified sweeps fan
    out across domains unchanged. *)
