module Vm = Hcsgc_runtime.Vm
module Layout = Hcsgc_heap.Layout
module Config = Hcsgc_core.Config
module Specjbb = Hcsgc_workloads.Specjbb_sim
module Bootstrap = Hcsgc_stats.Bootstrap
module Render = Hcsgc_stats.Render

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

let make_vm ~params config =
  Vm.create ~layout ~machine_config:Scaled_machine.config
    ~mutators:params.Specjbb.handlers ~config ~max_heap ()

(* What one job stores: the workload's four scores, then its metrics. *)
type outcome = { result : Specjbb.result; metrics : Runner.run_metrics }

let format : _ format6 = "hcsgc-specjbb-metrics 1\n%h %h %h %h\n"

let outcome_to_string { result = r; metrics } =
  Printf.sprintf format r.Specjbb.max_jops r.Specjbb.critical_jops
    r.Specjbb.mean_latency r.Specjbb.survival_rate
  ^ Runner.metrics_to_string metrics

let outcome_of_string =
  Runner.decode (fun ib ->
      let result =
        Scanf.bscanf ib format
          (fun max_jops critical_jops mean_latency survival_rate ->
            { Specjbb.max_jops; critical_jops; mean_latency; survival_rate })
      in
      { result; metrics = Runner.scan_metrics ib })

(* Content-addressing key: every scaled workload knob and the heap. *)
let key p =
  Printf.sprintf "specjbb;wh=%d;items=%d;txns=%d;handlers=%d;heap=%d"
    p.Specjbb.warehouses p.Specjbb.items_per_warehouse p.Specjbb.txns_per_step
    p.Specjbb.handlers max_heap

let tasks ~runs ~params =
  Runner.table2_tasks ~runs ~name:"specjbb" ~key:(key params)
    (fun config ~run ~verify ->
      let vm = make_vm ~params config in
      if verify then Vm.enable_verification vm;
      let result = Specjbb.run vm { params with Specjbb.seed = run } in
      Vm.finish vm;
      { result; metrics = Runner.collect vm })

let render ~runs outcomes fmt =
  Format.fprintf fmt "=== Fig. 13 — SPECjbb2015 (simulated composite) ===@.";
  Format.fprintf fmt
    "paper: overlapping CIs — no conclusive effect (survival ~1%%); heap \
     usage grows as the injector ramps@.@.";
  let per_config =
    Runner.chunks (List.map fst Config.table2) ~size:runs outcomes
  in
  let estimate f samples =
    Bootstrap.estimate ~seed:42 (Array.map (fun o -> f o.result) samples)
  in
  let base = List.assoc 0 per_config in
  let base_tp = estimate (fun r -> r.Specjbb.max_jops) base in
  let base_lat = estimate (fun r -> r.Specjbb.critical_jops) base in
  Render.table fmt
    ~headers:
      [ "cfg"; "throughput (max-jOPS) [CI]"; "latency (critical-jOPS) [CI]";
        "overlap vs ZGC?"; "survival" ]
    ~rows:
      (List.map
         (fun (id, samples) ->
           let tp = estimate (fun r -> r.Specjbb.max_jops) samples in
           let lat = estimate (fun r -> r.Specjbb.critical_jops) samples in
           let surv =
             Array.fold_left
               (fun acc o -> acc +. o.result.Specjbb.survival_rate)
               0.0 samples
             /. float_of_int (Array.length samples)
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
  Report.heap_usage_series fmt ~max_heap base.(0).metrics.Runner.heap_samples;
  Format.pp_print_newline fmt ()

let fig13 ~runs ~scale =
  Runner.Plan
    {
      tasks = tasks ~runs ~params:(experiment_params ~scale);
      encode = outcome_to_string;
      decode = outcome_of_string;
      render = render ~runs;
    }
