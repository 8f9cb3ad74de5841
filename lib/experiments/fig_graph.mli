(** Reproductions of the JGraphT figures (§4.5): connected components (CC)
    and Bron–Kerbosch maximal cliques (MC) on generator stand-ins for the
    LAW uk / enwiki datasets (Table 3).

    [scale] divides Table 3's node/edge counts (default 4 for CC, 2 for MC)
    so a full 19-configuration sweep stays minutes-scale.  [cache] is the
    incremental-sweep knob of {!Runner.run_configs}; it never changes
    output bytes. *)

val fig7 : Runner.renderer
(** CC on uk. *)

val fig8 : Runner.renderer
(** CC on enwiki. *)

val fig9 : Runner.renderer
(** MC on uk. *)

val fig10 : Runner.renderer
(** MC on enwiki. *)

val cc_experiment :
  dataset:Hcsgc_graph.Dataset.t ->
  scale:int ->
  unit ->
  Runner.experiment

val mc_experiment :
  ?max_expansions:int ->
  dataset:Hcsgc_graph.Dataset.t ->
  scale:int ->
  unit ->
  Runner.experiment
