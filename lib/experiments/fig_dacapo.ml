module Vm = Hcsgc_runtime.Vm
module Layout = Hcsgc_heap.Layout
module Tradebeans = Hcsgc_workloads.Tradebeans_sim
module H2 = Hcsgc_workloads.H2_sim

let layout = Layout.scaled ~small_page:(64 * 1024)

let make_vm ~max_heap config =
  Vm.create ~layout ~machine_config:Scaled_machine.config ~config ~max_heap ()

let tradebeans_heap = 12 * 1024 * 1024

let tradebeans_experiment ~scale () =
  let base = Tradebeans.default in
  let params =
    {
      base with
      Tradebeans.accounts = max 100 (base.Tradebeans.accounts / scale);
      instruments = max 50 (base.Tradebeans.instruments / scale);
      orders = max 500 (base.Tradebeans.orders / scale);
      hot_accounts = max 10 (base.Tradebeans.hot_accounts / scale);
    }
  in
  {
    Runner.name = "tradebeans";
    key =
      Printf.sprintf "tradebeans;acct=%d;instr=%d;orders=%d;hot=%d;heap=%d"
        params.Tradebeans.accounts params.Tradebeans.instruments
        params.Tradebeans.orders params.Tradebeans.hot_accounts
        tradebeans_heap;
    make_vm = make_vm ~max_heap:tradebeans_heap;
    workload =
      (fun vm ~run ->
        ignore (Tradebeans.run vm { params with Tradebeans.seed = run }));
  }

let h2_experiment ~scale () =
  let base = H2.default in
  (* Scale shortens the run (fewer transactions) but keeps the table — the
     hot working set must stay larger than the LLC for the paper's effect
     to be visible. *)
  let params =
    { base with H2.transactions = max 200 (base.H2.transactions / scale) }
  in
  (* Heap sized a little over twice the table, so the steady transient
     allocation produces recurring GC cycles during the query phase (where
     relocation can capture the recurring access order). *)
  let max_heap = max (4 * 1024 * 1024) (3 * params.H2.rows * 64) in
  {
    Runner.name = "h2";
    key =
      Printf.sprintf "h2;rows=%d;txns=%d;heap=%d" params.H2.rows
        params.H2.transactions max_heap;
    make_vm = make_vm ~max_heap;
    workload =
      (fun vm ~run -> ignore (H2.run vm { params with H2.seed = run }));
  }

let fig11 ~runs ~scale =
  Report.plan ~title:"Fig. 11 — DaCapo tradebeans (simulated)"
    ~expectation:
      "little improvement (≤ ~5% at best): most objects are very short \
       lived, and HCSGC only improves locality for objects surviving a GC \
       cycle"
    ~runs
    (tradebeans_experiment ~scale ())

let fig12 ~runs ~scale =
  Report.plan ~title:"Fig. 12 — DaCapo h2 (simulated)"
    ~expectation:
      "5-9% improvement for several configurations; < 2% overhead for \
       hotness tracking alone (config 5); RELOCATEALLSMALLPAGES outperforms \
       COLDCONFIDENCE"
    ~runs
    (h2_experiment ~scale ())
