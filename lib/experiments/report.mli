(** Text rendering of a figure's panels, following the layout of §4.2:
    execution time (box plot, bootstrap mean with 95 % CI, normalised
    delta), cache statistics normalised against ZGC, and GC statistics
    (cycles per run, median small pages in EC, relocation attribution),
    plus the baseline heap-usage-over-time series. *)

val figure :
  Format.formatter ->
  title:string ->
  expectation:string ->
  (int * Runner.run_metrics array) list ->
  unit
(** [figure fmt ~title ~expectation results] prints every panel.
    [expectation] states the paper's reported shape for eyeball comparison.
    Config 0 must be present; it is the normalisation baseline. *)

val plan :
  title:string -> expectation:string -> runs:int -> Runner.experiment ->
  Runner.plan
(** The experiment's sweep over all 19 Table 2 configurations
    ({!Runner.table2_tasks}), printed with {!figure}. *)

val heap_usage_series :
  Format.formatter -> max_heap:int -> (int * int) list -> unit
(** Render (wall, used-bytes) samples as a compact text series of usage
    percentages. *)

val wall_estimates :
  (int * Runner.run_metrics array) list ->
  (int * Hcsgc_stats.Bootstrap.estimate) list
(** Bootstrap estimates of execution time per configuration (exposed for
    tests and EXPERIMENTS.md generation). *)
