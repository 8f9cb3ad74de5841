(** Reproductions of the synthetic-benchmark figures.

    - {!fig4}: single stable access phase (§4.4, Fig. 4);
    - {!fig5}: three phases with per-phase seeds (Fig. 5);
    - {!fig6}: ample-relocation overhead — 1:10 hot/cold population on a
      saturated single core (Fig. 6).

    Each is the {!Report.plan} of a Table 2 sweep: [runs] samples per
    configuration (the paper uses 30), workload size divided by
    [scale]. *)

val fig4_experiment : scale:int -> Runner.experiment
val fig5_experiment : scale:int -> Runner.experiment
val fig6_experiment : scale:int -> Runner.experiment
(** The one experiment each figure sweeps, for its plan below and for
    [hcsgc-run profile --exp f4|f5|f6] ({!Named}), so a profiled job and
    the figure's job at the same scale share a store key. *)

val fig4 : runs:int -> scale:int -> Runner.plan

val fig5 : runs:int -> scale:int -> Runner.plan

val fig6 : runs:int -> scale:int -> Runner.plan

val experiment :
  ?phases:int ->
  ?cold_ratio:int ->
  ?saturated:bool ->
  ?heap_mult:int ->
  ?prefetch:bool ->
  ?tlb:bool ->
  ?small_page:int ->
  ?autotune:bool ->
  scale:int ->
  unit ->
  Runner.experiment
(** The underlying experiment, exposed for tests, the CLI and
    {!Ablations}.  The last four knobs are the ablations' variations of
    the Fig. 4 setup: [prefetch] (default [true]) runs the stream
    prefetcher, [tlb] (default [false]) the dTLB model, [small_page]
    (default 64 KiB) is the scaled small-page size, and [autotune]
    (default [false]) the §4.8 COLDCONFIDENCE feedback loop.  Each adds a
    term to the experiment's key only when it differs from its default,
    so an ablation variant that is a Fig. 4 job shares that job's store
    entry. *)
