(** Reproductions of the JGraphT figures (§4.5): connected components (CC)
    and Bron–Kerbosch maximal cliques (MC) on generator stand-ins for the
    LAW uk / enwiki datasets (Table 3).

    Each is the {!Report.plan} of a Table 2 sweep; [scale] divides
    Table 3's node/edge counts so a full 19-configuration sweep stays
    minutes-scale. *)

val fig7 : runs:int -> scale:int -> Runner.plan
(** CC on uk. *)

val fig8 : runs:int -> scale:int -> Runner.plan
(** CC on enwiki. *)

val fig9 : runs:int -> scale:int -> Runner.plan
(** MC on uk. *)

val fig10 : runs:int -> scale:int -> Runner.plan
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
