(** Reproductions of the DaCapo figures (§4.6): {!fig11} tradebeans (expected
    ≈ flat — objects die too young for relocation to help) and {!fig12} h2
    (expected 5–9 % improvements, hotness-tracking overhead < 2 %).
    [cache] is the incremental-sweep knob of {!Runner.run_configs}; it
    never changes output bytes. *)

val fig11 : Runner.renderer

val fig12 : Runner.renderer

val tradebeans_experiment : scale:int -> unit -> Runner.experiment

val h2_experiment : scale:int -> unit -> Runner.experiment
