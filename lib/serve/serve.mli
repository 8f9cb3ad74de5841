(** A simulated KV-store serving tier on the {!Hcsgc_runtime.Vm}.

    The store is a dense, statically sharded index: key [k] lives on
    mutator [k mod mutators] at slot [k / mutators], each shard an index
    array of reference slots pointing at heap-allocated entry objects
    ([1 + value_words] payload words: the key, then the value).  Gets
    pointer-chase index → entry and read the value; updates allocate a
    fresh entry and swing the index slot through the write barrier (the
    old entry becomes garbage — the churn that drives GC); scans read a
    run of consecutive slots within one shard.

    Requests are driven {e open-loop}: an {!Arrival} timeline is fixed up
    front, service times are measured on the owning mutator's simulated
    clock with requests run back to back, and each service time is
    replayed against its arrival on a per-mutator virtual queue
    ([start = max arrival free_at]).  STW pauses do not advance mutator
    clocks, so the pause cycles absorbed while a request executed are
    charged separately as its {e stall} and added to the queue like
    service time.  A request's latency is therefore queueing delay plus
    service plus stall, free of coordinated omission: a GC pause inflates
    not just the request it lands on but everything queued behind it on
    the shard.

    Each request also records its wall-clock service window
    [\[w0, w1\]] ({!Vm.wall_cycles} before/after execution), which the
    {!Slo} analyzer intersects with STW-pause intervals to attribute
    violations.  When telemetry is enabled on the VM, every request is
    recorded as a completed span on its mutator's track at zero simulated
    cost. *)

module Vm = Hcsgc_runtime.Vm
module Keydist = Hcsgc_workloads.Keydist

type kind = Get | Update | Scan

type mix = {
  gets : int;  (** percent of requests *)
  updates : int;
  scans : int;  (** the three must sum to 100 *)
  scan_len : int;  (** slots read per scan *)
}

type params = {
  keys : int;
  value_words : int;  (** payload words per entry (beyond the key word) *)
  mutators : int;  (** serving threads; clamped to the VM's mutator count *)
  dist : Keydist.spec;
  mix : mix;
  process : Arrival.process;
  load : float;  (** offered load, requests per megacycle *)
  duration : int;  (** arrival-window length in simulated cycles *)
  seed : int;
}

type request = {
  arrival : int;  (** simulated cycle the request entered the system *)
  mutator : int;  (** owning shard *)
  kind : kind;
  wait : int;  (** queueing delay on the shard's virtual queue *)
  service : int;  (** owning mutator's clock delta across execution *)
  stall : int;
      (** STW-pause cycles absorbed during execution (the VM's STW-cycle
          delta, so it is identical with and without telemetry) *)
  latency : int;  (** [wait + service + stall] — enqueue to completion *)
  w0 : int;  (** wall clock when execution began *)
  w1 : int;  (** wall clock when execution finished *)
}

type result = {
  requests : request array;  (** in arrival order *)
  gets : int;
  updates : int;
  scans : int;
  checksum : int;  (** xor of every value word read *)
}

val default : params
(** 20k keys, 16 value words, 4 mutators, zipf(0.99), 60/35/5 mix with
    32-slot scans, constant arrivals at 400 req/Mcycle over 50 Mcycles —
    calibrated so the update churn drives several GC cycles through an
    8 MiB heap and the tail shows pause stalls. *)

val run : Vm.t -> params -> result
(** Prepopulate every key, then drive the arrival timeline to exhaustion.
    Deterministic for fixed params on a fixed VM configuration — including
    across instrumented vs. plain runs.
    @raise Invalid_argument on non-positive sizes or a mix that does not
    sum to 100. *)

val params_key : params -> string
(** Stable one-line rendering of every result-affecting parameter, for
    content-address fingerprints (floats in hex).  The key distribution is
    named by its spec and checked with {!Keydist.validate}, not built.
    @raise Invalid_argument on a spec or key count {!Keydist.create}
    rejects. *)
