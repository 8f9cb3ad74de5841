(** Reproductions of the synthetic-benchmark figures.

    - {!fig4}: single stable access phase (§4.4, Fig. 4);
    - {!fig5}: three phases with per-phase seeds (Fig. 5);
    - {!fig6}: ample-relocation overhead — 1:10 hot/cold population on a
      saturated single core (Fig. 6).

    [runs] is the sample size per configuration (the paper uses 30; the
    default here is 5 to keep the full suite minutes-scale — raise it for
    tighter intervals).  [scale] divides workload size.  [jobs] fans the
    sweep's (configuration, run) jobs across that many domains
    ({!Hcsgc_exec.Pool}; default 1 = in-process); results are aggregated
    in job order, so the rendered figure is identical at any [jobs].  [cache] serves
    repeats from a {!Hcsgc_store.Result_store} (see
    {!Runner.run_configs}); it never changes a byte of output. *)

val fig4 : Runner.renderer

val fig5 : Runner.renderer

val fig6 : Runner.renderer

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
