module Vm = Hcsgc_runtime.Vm
module Layout = Hcsgc_heap.Layout
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module Specjbb = Hcsgc_workloads.Specjbb_sim
module Bootstrap = Hcsgc_stats.Bootstrap
module Render = Hcsgc_stats.Render
module Pool = Hcsgc_exec.Pool
module Reporter = Hcsgc_exec.Reporter

let layout = Layout.scaled ~small_page:(64 * 1024)

let max_heap = 24 * 1024 * 1024

let experiment_params ~scale =
  let base = Specjbb.default in
  {
    base with
    Specjbb.warehouses = max 2 (base.Specjbb.warehouses / scale);
    items_per_warehouse = max 200 (base.Specjbb.items_per_warehouse / scale);
    txns_per_step = max 100 (base.Specjbb.txns_per_step / scale);
  }

let fig13 ?(runs = 3) ?(scale = 1) ?(jobs = 1) fmt =
  let params = experiment_params ~scale in
  Format.fprintf fmt "=== Fig. 13 — SPECjbb2015 (simulated composite) ===@.";
  Format.fprintf fmt
    "paper: overlapping CIs — no conclusive effect (survival ~1%%); heap \
     usage grows as the injector ramps@.@.";
  (* Fig. 13 keeps the workload's own result record alongside run_metrics,
     so it drives the execution engine directly rather than through
     Runner.run_configs: same (config, run) job expansion, same job-order
     aggregation, hence the same determinism guarantee. *)
  let reporter = Reporter.create () in
  let job_list =
    List.concat_map
      (fun (id, config) ->
        List.init runs (fun run -> (id, config, run)))
      Config.table2
  in
  let run_job (id, config, run) =
    if run = 0 then Reporter.sayf reporter "[bench] specjbb: config %d" id;
    let vm =
      Vm.create ~layout ~machine_config:Scaled_machine.config
        ~mutators:params.Specjbb.handlers ~config ~max_heap ()
    in
    let r = Specjbb.run vm { params with Specjbb.seed = run } in
    Vm.finish vm;
    (r, Runner.collect vm)
  in
  let flat =
    Pool.with_pool ~jobs (fun pool -> Pool.map_list pool run_job job_list)
  in
  let per_config =
    List.mapi
      (fun i (id, _) ->
        (id, List.filteri (fun j _ -> j / runs = i) flat))
      Config.table2
  in
  let seed = 42 in
  let estimate f samples =
    Bootstrap.estimate ~seed (Array.of_list (List.map f samples))
  in
  let base = List.assoc 0 per_config in
  let base_tp = estimate (fun (r, _) -> r.Specjbb.max_jops) base in
  let base_lat = estimate (fun (r, _) -> r.Specjbb.critical_jops) base in
  Render.table fmt
    ~headers:
      [ "cfg"; "throughput (max-jOPS) [CI]"; "latency (critical-jOPS) [CI]";
        "overlap vs ZGC?"; "survival" ]
    ~rows:
      (List.map
         (fun (id, samples) ->
           let tp = estimate (fun (r, _) -> r.Specjbb.max_jops) samples in
           let lat = estimate (fun (r, _) -> r.Specjbb.critical_jops) samples in
           let surv =
             List.fold_left (fun acc (r, _) -> acc +. r.Specjbb.survival_rate)
               0.0 samples
             /. float_of_int (List.length samples)
           in
           [
             string_of_int id;
             Render.estimate_cell tp;
             Render.estimate_cell lat;
             (if Bootstrap.overlaps tp base_tp && Bootstrap.overlaps lat base_lat
              then "yes (inconclusive)"
              else "no");
             Printf.sprintf "%.1f%%" (100.0 *. surv);
           ])
         per_config);
  Format.pp_print_newline fmt ();
  (* Heap usage over time, config 0, first run (Fig. 13 rightmost). *)
  (match base with
  | (_, m) :: _ -> Report.heap_usage_series fmt ~max_heap m.Runner.heap_samples
  | [] -> ());
  Format.pp_print_newline fmt ()
