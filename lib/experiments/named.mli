(** The named experiments of [hcsgc-run profile --exp] and
    [hcsgc-run graph --algo --dataset]: each name with its experiment at a
    given [--scale].  The synthetic entries are the figures' own
    experiments ({!Fig_synthetic.fig4_experiment} and friends), so a
    profiled job shares its figure's store key. *)

val experiments : (string * (int -> Runner.experiment)) list
