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

let magic = "hcsgc-serve-metrics 1"

let outcome_to_string o =
  String.concat "\n"
    [
      magic;
      Slo.to_line o.report;
      Slo.histogram_to_string o.histogram;
      string_of_int o.checksum;
      Runner.metrics_to_string o.metrics;
    ]

let outcome_of_string s =
  match String.split_on_char '\n' s with
  | m :: slo_line :: hist :: cs :: rest when m = magic -> (
      let histogram =
        String.split_on_char ' ' hist
        |> List.fold_left
             (fun acc tok ->
               match (acc, int_of_string_opt tok) with
               | Some acc, Some n -> Some (n :: acc)
               | _ -> None)
             (Some [])
        |> Option.map (fun l -> Array.of_list (List.rev l))
      in
      match
        ( Slo.of_line slo_line,
          histogram,
          int_of_string_opt cs,
          Runner.metrics_of_string (String.concat "\n" rest) )
      with
      | Ok report, Some histogram, Some checksum, Some metrics ->
          Some { report; histogram; checksum; metrics }
      | _ -> None)
  | _ -> None

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

let compute ~heap ~verify ~params id run =
  let vm =
    Vm.create ~layout ~machine_config:Scaled_machine.config
      ~mutators:params.Serve.mutators ~trigger
      ~config:(Config.of_id id) ~max_heap:heap ()
  in
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

let sweep ?(config_ids = default_configs) ?(runs = 3) ?jobs ?(verify = false)
    ?cache ?(heap = max_heap) ?progress ~params () =
  let experiment = key ~heap ~params ~slo:default_slo in
  let task id run =
    {
      Runner.group =
        Printf.sprintf "serve: config %d (%s)" id
          (Config.to_string (Config.of_id id));
      experiment;
      config = Runner.config_key id;
      run;
      compute = (fun () -> compute ~heap ~verify ~params id run);
    }
  in
  let tasks =
    Array.of_list
      (List.concat_map (fun id -> List.init runs (task id)) config_ids)
  in
  Runner.sweep ?jobs ?cache ?progress ~verify ~encode:outcome_to_string
    ~decode:outcome_of_string tasks
  |> Runner.chunks config_ids ~size:runs

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

let figure ?(runs = 3) ?(scale = 1) ?(jobs = 1) ?cache fmt =
  let params = scaled_params ~scale in
  let config_ids = default_configs and slo = default_slo in
  let results =
    sweep ~config_ids ~runs ~jobs ?cache ~heap:(scaled_heap ~scale)
      ~progress:(fun msg -> Format.eprintf "[bench] %s@." msg)
      ~params ()
  in
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
  let base_est = List.assoc_opt (List.hd config_ids) estimates in
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
  (match base_est with
  | None -> ()
  | Some base ->
      let significant =
        List.filter_map
          (fun (id, est) ->
            if id <> List.hd config_ids && not (Bootstrap.overlaps est base)
            then Some id
            else None)
          estimates
      in
      Format.fprintf fmt
        "significant p99.9 vs config %d (non-overlapping 95%% CIs): %s@.@."
        (List.hd config_ids)
        (if significant = [] then "none"
         else String.concat ", " (List.map string_of_int significant)))
