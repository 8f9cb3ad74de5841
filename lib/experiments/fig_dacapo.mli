(** Reproductions of the DaCapo figures (§4.6): {!fig11} tradebeans (expected
    ≈ flat — objects die too young for relocation to help) and {!fig12} h2
    (expected 5–9 % improvements, hotness-tracking overhead < 2 %), each
    the {!Report.plan} of a Table 2 sweep. *)

val fig11 : runs:int -> scale:int -> Runner.plan

val fig12 : runs:int -> scale:int -> Runner.plan

val tradebeans_experiment : scale:int -> unit -> Runner.experiment

val h2_experiment : scale:int -> unit -> Runner.experiment
