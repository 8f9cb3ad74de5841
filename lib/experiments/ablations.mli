(** Ablations of the design choices DESIGN.md calls out — not figures from
    the paper, but checks that the reproduction's mechanisms carry the load
    the paper attributes to them.

    - {!prefetcher}: HCSGC's access-order layouts are claimed to be
      "prefetching friendly" (§1, §3); with the stream prefetcher disabled,
      most of the big-EC+lazy speedup should vanish.
    - {!tlb}: packing hot objects onto fewer pages also reduces dTLB
      pressure (the page-locality angle of Chen et al. discussed in §5).
    - {!autotuner}: the §4.8 feedback loop should land within the ballpark
      of the best hand-tuned COLDCONFIDENCE without knowing it in advance.
    - {!page_size}: §3.4/§4.8 suggest a finer page size class would allow
      finer-grained relocation; sweeping the (scaled) page size shows the
      granularity effect directly.

    Each variant is a {!Fig_synthetic.experiment} with one ablation knob
    turned, under one configuration; its runs are {!Runner.task}s, so a
    variant that is a Fig. 4 job shares that job's fingerprint. *)

type variant = string * Runner.experiment * Hcsgc_core.Config.t
(** Display name, experiment, configuration. *)

val variants : scale:int -> (string * variant list) list
(** Each ablation's variants in table order, keyed by its name. *)

val tasks : runs:int -> variant list -> Runner.run_metrics Runner.task array
(** Every (variant, run) pair as one task, variants in order, runs
    0..runs-1 within each. *)

val prefetcher : runs:int -> scale:int -> Runner.plan
val tlb : runs:int -> scale:int -> Runner.plan
val autotuner : runs:int -> scale:int -> Runner.plan
val page_size : runs:int -> scale:int -> Runner.plan
