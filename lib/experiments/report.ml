module Config = Hcsgc_core.Config
module Descriptive = Hcsgc_stats.Descriptive
module Bootstrap = Hcsgc_stats.Bootstrap
module Render = Hcsgc_stats.Render

let bootstrap_seed = 42

let wall_samples metrics = Array.map (fun m -> m.Runner.wall) metrics

let wall_estimates results =
  List.map
    (fun (id, metrics) ->
      (id, Bootstrap.estimate ~seed:bootstrap_seed (wall_samples metrics)))
    results

let mean xs = Descriptive.mean xs

let metric_mean f metrics = mean (Array.map f metrics)

let norm baseline v =
  if baseline = 0.0 then 0.0 else (v -. baseline) /. baseline

let figure fmt ~title ~expectation results =
  let baseline_metrics =
    match List.assoc_opt 0 results with
    | Some m -> m
    | None -> invalid_arg "Report.figure: config 0 (the ZGC baseline) missing"
  in
  Format.fprintf fmt "=== %s ===@." title;
  Format.fprintf fmt "paper: %s@.@." expectation;
  let estimates = wall_estimates results in
  let base_est = List.assoc 0 estimates in
  (* Panel 1: execution time. *)
  Format.fprintf fmt "-- execution time (simulated cycles) --@.";
  Render.table fmt
    ~headers:
      [ "cfg"; "knobs"; "boxplot (q1|med|q3)"; "mean [95% CI]"; "vs ZGC" ]
    ~rows:
      (List.map
         (fun (id, metrics) ->
           let est = List.assoc id estimates in
           let box = Descriptive.boxplot (wall_samples metrics) in
           [
             string_of_int id;
             Config.to_string (Config.of_id id);
             Render.boxplot_line box;
             Render.estimate_cell est;
             (if id = 0 then "--"
              else Render.pct (Bootstrap.relative_to ~baseline:base_est est));
           ])
         results);
  (* Significance notes: which configs differ from baseline with 95%
     confidence (non-overlapping CIs), as in the paper's methodology. *)
  let significant =
    List.filter_map
      (fun (id, est) ->
        if id <> 0 && not (Bootstrap.overlaps est base_est) then Some id
        else None)
      estimates
  in
  Format.fprintf fmt "significant vs ZGC (non-overlapping 95%% CIs): %s@.@."
    (if significant = [] then "none"
     else String.concat ", " (List.map string_of_int significant));
  (* Panel 2: cache statistics normalised against ZGC. *)
  Format.fprintf fmt
    "-- cache statistics, normalised vs ZGC (negative = fewer) --@.";
  let base_loads = metric_mean (fun m -> m.Runner.loads) baseline_metrics in
  let base_l1 = metric_mean (fun m -> m.Runner.l1_misses) baseline_metrics in
  let base_llc = metric_mean (fun m -> m.Runner.llc_misses) baseline_metrics in
  let base_ml1 =
    metric_mean (fun m -> m.Runner.mut_l1_misses) baseline_metrics
  in
  let base_mllc =
    metric_mean (fun m -> m.Runner.mut_llc_misses) baseline_metrics
  in
  Render.table fmt
    ~headers:[ "cfg"; "loads"; "L1 miss"; "LLC miss"; "mut L1"; "mut LLC" ]
    ~rows:
      (List.map
         (fun (id, metrics) ->
           [
             string_of_int id;
             Render.pct (norm base_loads (metric_mean (fun m -> m.Runner.loads) metrics));
             Render.pct (norm base_l1 (metric_mean (fun m -> m.Runner.l1_misses) metrics));
             Render.pct
               (norm base_llc (metric_mean (fun m -> m.Runner.llc_misses) metrics));
             Render.pct
               (norm base_ml1
                  (metric_mean (fun m -> m.Runner.mut_l1_misses) metrics));
             Render.pct
               (norm base_mllc
                  (metric_mean (fun m -> m.Runner.mut_llc_misses) metrics));
           ])
         results);
  Format.fprintf fmt
    "(whole-process counters include GC-thread copying; 'mut' columns are \
     the mutator core only)@.@.";
  (* Panel 3: GC statistics. *)
  Format.fprintf fmt "-- GC statistics --@.";
  Render.table fmt
    ~headers:
      [ "cfg"; "cycles/run"; "EC median (small pages)"; "reloc by mutator";
        "reloc by GC" ]
    ~rows:
      (List.map
         (fun (id, metrics) ->
           [
             string_of_int id;
             Printf.sprintf "%.1f"
               (metric_mean (fun m -> float_of_int m.Runner.gc_cycle_count) metrics);
             Printf.sprintf "%.1f"
               (metric_mean (fun m -> m.Runner.ec_median) metrics);
             Render.si (metric_mean (fun m -> float_of_int m.Runner.reloc_mut) metrics);
             Render.si (metric_mean (fun m -> float_of_int m.Runner.reloc_gc) metrics);
           ])
         results);
  Format.pp_print_newline fmt ()

let plan ~title ~expectation ~runs exp =
  let ids = List.map fst Config.table2 in
  Runner.Plan
    {
      tasks =
        Runner.table2_tasks ~runs ~name:exp.Runner.name ~key:exp.Runner.key
          (Runner.measure exp);
      encode = Runner.metrics_to_string;
      decode = Runner.metrics_of_string;
      render =
        (fun ms fmt ->
          figure fmt ~title ~expectation (Runner.chunks ids ~size:runs ms));
    }

let heap_usage_series fmt ~max_heap samples =
  match samples with
  | [] -> Format.fprintf fmt "(no heap samples)@."
  | _ ->
      let samples = Array.of_list samples in
      let n = Array.length samples in
      let points = min 24 n in
      Format.fprintf fmt "heap usage over time (%% of %s):@."
        (Render.si (float_of_int max_heap));
      for i = 0 to points - 1 do
        let wall, used = samples.(i * n / points) in
        let pct = 100.0 *. float_of_int used /. float_of_int max_heap in
        let bar = String.make (int_of_float (pct /. 4.0)) '#' in
        Format.fprintf fmt "  t=%-10s %5.1f%% %s@."
          (Render.si (float_of_int wall))
          pct bar
      done
