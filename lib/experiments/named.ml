module D = Hcsgc_graph.Dataset

(* Graph inputs are divided by 4 (CC) or 2 (MC) on top of --scale, so
   the default sizes stay minutes-scale. *)
let cc dataset scale = Fig_graph.cc_experiment ~dataset ~scale:(4 * scale) ()
let mc dataset scale = Fig_graph.mc_experiment ~dataset ~scale:(2 * scale) ()

let experiments =
  [
    ("f4", fun scale -> Fig_synthetic.fig4_experiment ~scale);
    ("f5", fun scale -> Fig_synthetic.fig5_experiment ~scale);
    ("f6", fun scale -> Fig_synthetic.fig6_experiment ~scale);
    ("cc-uk", cc D.uk_cc);
    ("cc-enwiki", cc D.enwiki_cc);
    ("mc-uk", mc D.uk_mc);
    ("mc-enwiki", mc D.enwiki_mc);
    ("h2", fun scale -> Fig_dacapo.h2_experiment ~scale ());
    ("tradebeans", fun scale -> Fig_dacapo.tradebeans_experiment ~scale ());
  ]
