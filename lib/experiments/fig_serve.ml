module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Layout = Hcsgc_heap.Layout
module Serve = Hcsgc_serve.Serve
module Slo = Hcsgc_serve.Slo
module Arrival = Hcsgc_serve.Arrival
module Keydist = Hcsgc_workloads.Keydist
module Analyzer = Hcsgc_telemetry.Analyzer
module Bootstrap = Hcsgc_stats.Bootstrap
module Render = Hcsgc_stats.Render

let layout = Layout.scaled ~small_page:(64 * 1024)

(* Tight enough that the default workload's update churn paces several GC
   cycles through the run (the live set is ~3 MiB), so the tail actually
   contains pause stalls. *)
let max_heap = 8 * 1024 * 1024
let trigger = 0.10

let default_configs = [ 0; 4; 16; 18 ]
let default_slo = 5 * Slo.cycles_per_us

type outcome = {
  report : Slo.report;
  histogram : int array;
  checksum : int;
  metrics : Runner.run_metrics;
}

(* ------------------------------------------------------------------ *)
(* Payload codec: what a job stores under its fingerprint.             *)
(* ------------------------------------------------------------------ *)

(* The SLO report's fields.  The histogram's [Slo.histogram_buckets]
   counts follow on one line, then the checksum and the run's metrics. *)
let format : _ format6 =
  "hcsgc-serve-metrics 1\nslo1 n=%d g=%d u=%d s=%d dur=%d thr=%h mean=%h \
   p50=%d p95=%d p99=%d p999=%d max=%d slo=%d viol=%d pause=%d service=%d \
   pcycles=%d\n"

let outcome_to_string { report = r; histogram; checksum; metrics } =
  Printf.sprintf format r.Slo.requests r.gets r.updates r.scans r.duration
    r.throughput r.mean r.p50 r.p95 r.p99 r.p999 r.max_latency r.slo
    r.violations r.pause_attributed r.service_attributed r.pause_cycles
  ^ String.concat " " (Array.to_list (Array.map string_of_int histogram))
  ^ Printf.sprintf "\n%d\n" checksum
  ^ Runner.metrics_to_string metrics

let outcome_of_string =
  Runner.decode (fun ib ->
      let report =
        Scanf.bscanf ib format
          (fun requests gets updates scans duration throughput mean p50 p95
               p99 p999 max_latency slo violations pause_attributed
               service_attributed pause_cycles ->
            { Slo.requests; gets; updates; scans; duration; throughput; mean;
              p50; p95; p99; p999; max_latency; slo; violations;
              pause_attributed; service_attributed; pause_cycles })
      in
      Scanf.bscanf ib "%[^\n]\n%d\n" (fun counts checksum ->
          let histogram =
            Array.of_list
              (List.map int_of_string (String.split_on_char ' ' counts))
          in
          if Array.length histogram <> Slo.histogram_buckets then
            failwith "histogram length";
          { report; histogram; checksum; metrics = Runner.scan_metrics ib }))

(* ------------------------------------------------------------------ *)
(* Content addressing                                                  *)
(* ------------------------------------------------------------------ *)

let key ~heap ~params ~slo =
  Printf.sprintf "%s;slo=%d;heap=%d;trig=%h"
    (Serve.params_key { params with Serve.seed = 0 })
    slo heap trigger

let experiment_key ?(heap = max_heap) ~params ~shard_domains ~slo () =
  if shard_domains <> 0 then
    invalid_arg "Fig_serve.experiment_key: only the inline model (0) exists";
  key ~heap ~params ~slo

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let make_vm ~params ~heap config =
  Vm.create ~layout ~machine_config:Scaled_machine.config
    ~mutators:params.Serve.mutators ~trigger ~config ~max_heap:heap ()

let compute ~heap ~params config ~run ~verify =
  let vm = make_vm ~params ~heap config in
  if verify then Vm.enable_verification vm;
  let recorder = Vm.enable_telemetry vm in
  let r = Serve.run vm { params with Serve.seed = run } in
  Vm.finish vm;
  let report =
    Slo.analyze ~slo:default_slo ~duration:params.Serve.duration
      ~pauses:(Analyzer.pause_intervals recorder)
      r
  in
  {
    report;
    histogram = Slo.histogram r.Serve.requests;
    checksum = r.Serve.checksum;
    metrics = Runner.collect vm;
  }

let tasks ?(config_ids = default_configs) ?(heap = max_heap) ~runs ~params () =
  Runner.table2_tasks ~config_ids ~runs ~name:"serve"
    ~key:(key ~heap ~params ~slo:default_slo)
    (compute ~heap ~params)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let scaled_params ~scale =
  let base = Serve.default in
  {
    base with
    Serve.keys = max 2_000 (base.Serve.keys / scale);
    duration = max 5_000_000 (base.Serve.duration / scale);
  }

(* The heap must shrink with the live set, or scaled-down runs never
   allocate past the GC trigger and the figure degenerates to a
   pause-free tail. 2 MiB floors the scaled live set comfortably. *)
let scaled_heap ~scale = max (2 * 1024 * 1024) (max_heap / scale)

let bootstrap_seed = 42

let render ~runs ~params outcomes fmt =
  let config_ids = default_configs and slo = default_slo in
  let results = Runner.chunks config_ids ~size:runs outcomes in
  (* Human renderings for the header; the lossless [%h] spellings in
     [Keydist.spec_key]/[Arrival.process_key] are for content addresses. *)
  let dist_label = match params.Serve.dist with
    | Keydist.Uniform -> "uniform"
    | Keydist.Hotset { hot_keys; hot_bias } ->
        Printf.sprintf "hotset(%d keys, %g%%)" hot_keys (100.0 *. hot_bias)
    | Keydist.Zipfian { theta } -> Printf.sprintf "zipf %g" theta
    | Keydist.Sequential { stride } -> Printf.sprintf "sequential(+%d)" stride
  in
  let process_label = match params.Serve.process with
    | Arrival.Constant -> "constant"
    | Arrival.Diurnal { trough } -> Printf.sprintf "diurnal(trough %g)" trough
    | Arrival.Bursty { period; burst; mult } ->
        Printf.sprintf "bursty(%gx for %d/%d)" mult burst period
  in
  Format.fprintf fmt "=== Serving tier — tail latency under hotness ===@.";
  Format.fprintf fmt
    "open-loop KV serving (%s keys, %s arrivals, %.0f req/Mc, %d shards); \
     SLO %dc (%.0fus); expectation: hotness configs shift mutator-side \
     relocation into the serving path — compare p99.9 and pause-attributed \
     violations against ZGC@.@."
    dist_label process_label
    params.Serve.load params.Serve.mutators slo
    (float_of_int slo /. float_of_int Slo.cycles_per_us);
  let p999s (os : outcome array) =
    Array.map (fun o -> float_of_int o.report.Slo.p999) os
  in
  let estimates =
    List.map
      (fun (id, os) ->
        (id, Bootstrap.estimate ~seed:bootstrap_seed (p999s os)))
      results
  in
  let base = List.assoc (List.hd config_ids) estimates in
  let meani f (os : outcome array) =
    Array.fold_left (fun acc o -> acc +. float_of_int (f o)) 0.0 os
    /. float_of_int (Array.length os)
  in
  Render.table fmt
    ~headers:
      [ "cfg"; "knobs"; "p50"; "p99"; "p99.9 [95% CI]"; "max"; "viol";
        "pause/service"; "req/Mc" ]
    ~rows:
      (List.map
         (fun (id, os) ->
           let est = List.assoc id estimates in
           [
             string_of_int id;
             Config.to_string (Config.of_id id);
             Printf.sprintf "%.0f" (meani (fun o -> o.report.Slo.p50) os);
             Printf.sprintf "%.0f" (meani (fun o -> o.report.Slo.p99) os);
             Render.estimate_cell est;
             Printf.sprintf "%.0f" (meani (fun o -> o.report.Slo.max_latency) os);
             Printf.sprintf "%.1f" (meani (fun o -> o.report.Slo.violations) os);
             Printf.sprintf "%.1f/%.1f"
               (meani (fun o -> o.report.Slo.pause_attributed) os)
               (meani (fun o -> o.report.Slo.service_attributed) os);
             Printf.sprintf "%.1f"
               (Array.fold_left (fun acc o -> acc +. o.report.Slo.throughput)
                  0.0 os
               /. float_of_int (Array.length os));
           ])
         results);
  let significant =
    List.filter_map
      (fun (id, est) ->
        if id <> List.hd config_ids && not (Bootstrap.overlaps est base) then
          Some id
        else None)
      estimates
  in
  Format.fprintf fmt
    "significant p99.9 vs config %d (non-overlapping 95%% CIs): %s@.@."
    (List.hd config_ids)
    (if significant = [] then "none"
     else String.concat ", " (List.map string_of_int significant))

let figure ~runs ~scale =
  let params = scaled_params ~scale in
  Runner.Plan
    {
      tasks = tasks ~heap:(scaled_heap ~scale) ~runs ~params ();
      encode = outcome_to_string;
      decode = outcome_of_string;
      render = render ~runs ~params;
    }
