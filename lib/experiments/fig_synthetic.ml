module Vm = Hcsgc_runtime.Vm
module Layout = Hcsgc_heap.Layout
module H = Hcsgc_memsim.Hierarchy
module Synthetic = Hcsgc_workloads.Synthetic

let default_small_page = 64 * 1024

let experiment ?(phases = 1) ?(cold_ratio = 0) ?(saturated = false)
    ?(heap_mult = 5) ?(prefetch = true) ?(tlb = false)
    ?(small_page = default_small_page) ?(autotune = false) ~scale () =
  let base = Synthetic.default in
  let elements = max 1_000 (base.Synthetic.elements / scale) in
  let params =
    {
      base with
      Synthetic.elements;
      accesses_per_loop = max 1_000 (base.Synthetic.accesses_per_loop / scale);
      phases;
      loops = (if phases = 1 then base.Synthetic.loops else 12 * phases);
      cold_elements = cold_ratio * elements;
    }
  in
  (* Heap: a fixed multiple of the live set (elements + cold array + slot
     arrays), so that GC-cycle pacing per loop is scale-invariant — the
     figure's shape depends on the ratio of mutator accesses to relocation
     work per cycle, which this keeps constant across --scale settings. *)
  let live_bytes = (1 + cold_ratio) * elements * 48 in
  let max_heap = max (4 * 1024 * 1024) (heap_mult * live_bytes) in
  let layout = Layout.scaled ~small_page in
  let machine_config = { Scaled_machine.config with H.prefetch; tlb } in
  {
    Runner.name =
      Printf.sprintf "synthetic(phases=%d,cold=%dx%s)" phases cold_ratio
        (if saturated then ",saturated" else "");
    (* Content-addressing key: every derived workload parameter, so e.g.
       two --scale settings never share a store entry even though they
       share a display name. *)
    key =
      Printf.sprintf
        "synthetic;el=%d;apl=%d;phases=%d;loops=%d;cold=%d;sat=%b;heap=%d%s"
        elements params.Synthetic.accesses_per_loop phases
        params.Synthetic.loops params.Synthetic.cold_elements saturated
        max_heap
        (* The ablation knobs add a term only away from their defaults,
           so the figures' keys (and store entries) never move. *)
        (String.concat ""
           [
             (if prefetch then "" else ";prefetch=false");
             (if tlb then ";tlb=true" else "");
             (if small_page = default_small_page then ""
              else Printf.sprintf ";page=%d" small_page);
             (if autotune then ";autotune=true" else "");
           ]);
    make_vm =
      (fun config ->
        Vm.create ~layout ~machine_config ~saturated ~autotune ~config
          ~max_heap ());
    workload =
      (fun vm ~run ->
        ignore (Synthetic.run vm { params with Synthetic.seed = run }));
  }

let fig4_experiment ~scale = experiment ~scale ()
let fig5_experiment ~scale = experiment ~phases:3 ~scale ()

(* The tighter heap paces cycles frequently, so the 10x cold population is
   re-evacuated repeatedly — the overhead Fig. 6 is about. *)
let fig6_experiment ~scale =
  experiment ~cold_ratio:10 ~saturated:true ~heap_mult:2 ~scale ()

let fig4 ~runs ~scale =
  Report.plan ~title:"Fig. 4 — synthetic, single phase"
    ~expectation:
      "largest speedups for configs 4/10/16/18 (big EC + lazy), next 3/17, \
       some improvement 7/13, none for 2/5/8/11/14; large L1/LLC miss \
       reductions for improving configs; loads increase but are cache-served"
    ~runs (fig4_experiment ~scale)

let fig5 ~runs ~scale =
  Report.plan ~title:"Fig. 5 — synthetic, three phases"
    ~expectation:
      "same shape as Fig. 4: HCSGC adapts to phase changes (per-phase stable \
       access orders are re-captured after each change)"
    ~runs (fig5_experiment ~scale)

let fig6 ~runs ~scale =
  Report.plan ~title:"Fig. 6 — ample relocation, saturated single core"
    ~expectation:
      "large overhead for RELOCATEALLSMALLPAGES configs 3/4/17/18 (copying \
       the 10x cold population on the critical path); COLDCONFIDENCE configs \
       7/10/13/16 still improve"
    ~runs (fig6_experiment ~scale)
