(** The far-memory tier figure: far hit rate, simulated wall time and
    DRAM-footprint savings as tier capacity sweeps, across the synthetic,
    DaCapo-sim and serving workload families.

    Unlike the Table 2 figures, the sweep holds the collector fixed (the
    strongest hotness knob vector — the tier consumes the hotmap/EC cold
    evidence) and varies only the tier knobs, so capacity 0 is the
    tier-free baseline of each family.  Jobs are {!Runner.task}s,
    content-addressed like every other figure's: the experiment key plus
    the full knob-vector rendering ({!Runner.config_value_key}) name each
    outcome. *)

module Config = Hcsgc_core.Config

val default_capacities : int list
(** [[0; 4; 16; 64]] small pages of the scaled 64 KiB layout. *)

val default_lat_far : int

val tier_config : capacity:int -> lat_far:int -> promote:bool -> Config.t
(** The fixed hotness collector with the given tier knobs;
    [capacity = 0] disables tiering entirely. *)

val families : scale:int -> unit -> (string * Runner.experiment) list
(** The four workload families, in figure order: [synthetic] (with a 4x
    cold population so demotion has targets), [h2], [tradebeans],
    [serve]. *)

type outcome = {
  wall : float;
  loads : float;
  llc_misses : float;
  far_loads : float;
  far_peak : int;  (** peak far-resident bytes — the DRAM saving *)
  demoted : int;
  promoted : int;
}

val outcome_to_string : outcome -> string
(** Versioned, lossless payload stored under the job's fingerprint: a
    magic line, then the seven fields on one line ([%h] floats). *)

val outcome_of_string : string -> outcome option
(** Strict inverse of {!outcome_to_string} through {!Runner.decode}:
    [None] on any malformation, a truncation or trailing bytes. *)

val tasks :
  ?capacities:int list -> runs:int -> scale:int -> unit ->
  outcome Runner.task array
(** Every (family, capacity, repetition) job at {!default_lat_far} with
    promotion on: families in {!families} order, then capacities
    (default {!default_capacities}) in order, then runs 0..runs-1. *)

val figure : runs:int -> scale:int -> Runner.plan
(** Render the figure over {!default_capacities} at {!default_lat_far},
    with promotion on: one table per family — wall time (bootstrap CI),
    wall delta vs capacity 0, far hit rate (far loads / LLC misses),
    peak far residency and demotion/promotion counts per capacity. *)
