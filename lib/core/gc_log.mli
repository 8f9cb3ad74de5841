(** Structured GC events — the analogue of ZGC's [-Xlog:gc*] output,
    which the paper extends to report per-cycle EC sizes (§4.2).

    The collector emits events through one optional {!sink}; the
    telemetry recorder ({!Hcsgc_telemetry.Recorder.on_gc_event}) is the
    consumer that turns them into trace spans and instants.  Emission is
    off unless a sink is installed, so the default fast path pays
    nothing.

    Every event carries [wall], the simulated wall clock at emission (the
    collector's latest {!Collector.set_wall_hint}), so consumers can place
    events on a timeline without a second callback channel. *)

type pause = STW1 | STW2 | STW3

type event =
  | Cycle_start of { cycle : int; wall : int; heap_used : int }
  | Pause of { cycle : int; pause : pause; cost : int; wall : int }
  | Mark_end of { cycle : int; marked_objects : int; wall : int }
  | Ec_selected of { cycle : int; small : int; medium : int; wall : int }
  | Relocation_deferred of { cycle : int; pages : int; wall : int }
      (** LAZYRELOCATE handed the evacuation set to the mutators. *)
  | Pages_demoted of { cycle : int; pages : int; wall : int }
      (** Cold pages demoted to the far-memory tier at sweep (only emitted
          with tiering on). *)
  | Cycle_end of { cycle : int; wall : int; heap_used : int }

type sink = event -> unit
(** What {!Collector.create} consumes: one callback. *)

val null_sink : sink
(** Drops every event (the collector's default). *)

val is_null : sink -> bool
(** [is_null s] is true iff [s] is physically {!null_sink}.  Emitters use
    it to skip constructing event records nobody will see, keeping the
    no-sink path allocation-free. *)

val pause_name : pause -> string
(** ZGC's pause names: ["Pause Mark Start"] etc. *)
