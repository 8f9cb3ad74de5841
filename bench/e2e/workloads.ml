(* The four workloads: each expands a seed into a list of jobs, and turns
   the jobs' outcomes into its simulated end results.

   A job is one simulation on a fresh VM (the modelled caches start empty,
   as in the paper's figures).  Every call into a library goes through a
   [Trace.span], so a traced run can split host time by layer. *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module H = Hcsgc_memsim.Hierarchy
module Tier = Hcsgc_memsim.Tier
module Layout = Hcsgc_heap.Layout
module Fingerprint = Hcsgc_store.Fingerprint
module Runner = Hcsgc_experiments.Runner
module Fig_synthetic = Hcsgc_experiments.Fig_synthetic
module Fig_graph = Hcsgc_experiments.Fig_graph
module Fig_serve = Hcsgc_experiments.Fig_serve
module Fig_tier = Hcsgc_experiments.Fig_tier
module Scaled_machine = Hcsgc_experiments.Scaled_machine
module Dataset = Hcsgc_graph.Dataset
module Serve = Hcsgc_serve.Serve
module Slo = Hcsgc_serve.Slo
module Analyzer = Hcsgc_telemetry.Analyzer

(* Per-layer work of one job, read from public accessors of the finished
   VM. *)
type counts = {
  loads : int;
  stores : int;
  l1_misses : int;
  llc_misses : int;
  prefetches : int;
  far_loads : int;
  bytes_allocated : int;
  pages_freed : int;
  gc_cycles : int;
  objects_marked : int;
  reloc_mut : int;
  reloc_gc : int;
  barrier_fast : int;
  barrier_slow : int;
  ec_median : float;
  pages_demoted : int;
  pages_promoted : int;
  ops : int;
  wall_cycles : int;
  stw_cycles : int;
}

let counts_of vm =
  let c = Vm.counters vm and st = Vm.gc_stats vm in
  {
    loads = c.H.loads;
    stores = c.H.stores;
    l1_misses = c.H.l1_misses;
    llc_misses = c.H.llc_misses;
    prefetches = c.H.prefetches;
    far_loads = Vm.far_loads vm;
    bytes_allocated = Gc_stats.bytes_allocated st;
    pages_freed = Gc_stats.pages_freed st;
    gc_cycles = Gc_stats.cycles st;
    objects_marked = Gc_stats.objects_marked st;
    reloc_mut = Gc_stats.objects_relocated_by_mutator st;
    reloc_gc = Gc_stats.objects_relocated_by_gc st;
    barrier_fast = Gc_stats.barrier_fast_paths st;
    barrier_slow = Gc_stats.barrier_slow_paths st;
    ec_median = Gc_stats.median_small_pages_in_ec st;
    pages_demoted = Gc_stats.pages_demoted st;
    pages_promoted = Gc_stats.pages_promoted st;
    ops = Vm.ops vm;
    wall_cycles = Vm.wall_cycles vm;
    stw_cycles = Vm.stw_cycles vm;
  }

type detail =
  | Plain of { config_id : int }
  | Served of {
      config_id : int;
      load : float;
      report : Slo.report;
      waits : int array;  (* per request, in arrival order *)
      histogram : int array;
    }
  | Tiered of { family : string; capacity : int; far_peak : int }

type outcome = {
  payload : string;  (* what the result store holds for the job *)
  text : string;  (* the canonical output whose MD5 is pinned *)
  metrics : Runner.run_metrics;
  counts : counts;
  detail : detail;
}

type job = {
  label : string;  (* unique within the workload; the pin key *)
  fingerprint : Fingerprint.t;
  cost_key : string;
  make_vm : unit -> Vm.t;
  execute : Trace.t -> Vm.t -> outcome;
  decode : string -> string option;
      (* a stored payload decoded and encoded again: equal to [payload]
         exactly when the store round trip is lossless *)
}

let collect tr vm =
  let m = Trace.span tr "runner.collect" (fun () -> Runner.collect vm) in
  (m, Trace.span tr "runner.metrics_to_string" (fun () -> Runner.metrics_to_string m))

let finish tr vm = Trace.span tr "vm.finish" (fun () -> Vm.finish vm)

(* A Table 2 sweep job, stored exactly as [Runner.execute ~cache] stores
   it. *)
let runner_job (exp : Runner.experiment) ~run config_id =
  let rjob = { Runner.exp; config_id; run } in
  {
    label = Printf.sprintf "cfg%d" config_id;
    fingerprint = Runner.fingerprint ~verify:false rjob;
    cost_key = Runner.cost_key rjob;
    make_vm = (fun () -> exp.Runner.make_vm (Config.of_id config_id));
    execute =
      (fun tr vm ->
        Trace.span tr "workload" (fun () -> exp.Runner.workload vm ~run);
        finish tr vm;
        let metrics, text = collect tr vm in
        { payload = text; text; metrics; counts = counts_of vm;
          detail = Plain { config_id } });
    decode =
      (fun p -> Option.map Runner.metrics_to_string (Runner.metrics_of_string p));
  }

(* A far-tier capacity job, stored as [Fig_tier.sweep] stores it. *)
let tier_job (family, (exp : Runner.experiment)) ~run capacity =
  let config =
    Fig_tier.tier_config ~capacity ~lat_far:Fig_tier.default_lat_far ~promote:true
  in
  let key = "ftier;" ^ exp.Runner.key and cfg = Runner.config_value_key config in
  {
    label = Printf.sprintf "%s/cap%d" family capacity;
    fingerprint = Fingerprint.make ~experiment:key ~config:cfg ~run ~verify:false;
    cost_key = key ^ "#" ^ cfg;
    make_vm = (fun () -> exp.Runner.make_vm config);
    execute =
      (fun tr vm ->
        Trace.span tr "workload" (fun () -> exp.Runner.workload vm ~run);
        finish tr vm;
        let metrics, text = collect tr vm in
        let far_peak = match Vm.tier vm with Some t -> Tier.peak_bytes t | None -> 0 in
        let payload =
          Fig_tier.outcome_to_string
            {
              Fig_tier.wall = metrics.Runner.wall;
              loads = metrics.Runner.loads;
              llc_misses = metrics.Runner.llc_misses;
              far_loads = metrics.Runner.far_loads;
              far_peak;
              demoted = metrics.Runner.pages_demoted;
              promoted = metrics.Runner.pages_promoted;
            }
        in
        { payload; text = payload ^ text; metrics; counts = counts_of vm;
          detail = Tiered { family; capacity; far_peak } });
    decode =
      (fun p -> Option.map Fig_tier.outcome_to_string (Fig_tier.outcome_of_string p));
  }

let slo = Fig_serve.default_slo
let serve_heap = Fig_serve.scaled_heap ~scale:1

(* A serving job at one offered load, with bench/serve's VM settings and
   stored as [Fig_serve.sweep] stores it. *)
let serve_job ~seed ~duration config_id load =
  let params = { Serve.default with Serve.load; duration; seed } in
  let key = Fig_serve.experiment_key ~heap:serve_heap ~params ~shard_domains:0 ~slo () in
  {
    label = Printf.sprintf "cfg%d@%.0f" config_id load;
    fingerprint =
      Fingerprint.make ~experiment:key ~config:(Runner.config_key config_id) ~run:seed
        ~verify:false;
    cost_key = key ^ "#" ^ Runner.config_key config_id;
    make_vm =
      (fun () ->
        let vm =
          Vm.create ~layout:(Layout.scaled ~small_page:(64 * 1024))
            ~machine_config:Scaled_machine.config ~mutators:params.Serve.mutators
            ~trigger:0.10 ~config:(Config.of_id config_id) ~max_heap:serve_heap ()
        in
        ignore (Vm.enable_telemetry vm);
        vm);
    execute =
      (fun tr vm ->
        let r = Trace.span tr "serve.run" (fun () -> Serve.run vm params) in
        finish tr vm;
        let pauses =
          match Vm.telemetry vm with
          | Some rc ->
              Trace.span tr "analyzer.pause_intervals" (fun () ->
                  Analyzer.pause_intervals rc)
          | None -> []
        in
        let report =
          Trace.span tr "slo.analyze" (fun () ->
              Slo.analyze ~slo ~duration ~pauses r)
        in
        let metrics, _ = collect tr vm in
        let histogram = Slo.histogram r.Serve.requests in
        let payload =
          Fig_serve.outcome_to_string
            { Fig_serve.report; histogram; checksum = r.Serve.checksum; metrics }
        in
        {
          payload;
          text = payload;
          metrics;
          counts = counts_of vm;
          detail =
            Served
              {
                config_id;
                load;
                report;
                waits = Array.map (fun q -> q.Serve.wait) r.Serve.requests;
                histogram;
              };
        });
    decode =
      (fun p -> Option.map Fig_serve.outcome_to_string (Fig_serve.outcome_of_string p));
  }

(* ------------------------------------------------------------------ *)
(* Simulated end results                                               *)
(* ------------------------------------------------------------------ *)

type sim = (string * float * string) list

let wall_of_config outcomes id =
  List.find_map
    (fun o ->
      match o.detail with
      | Plain { config_id } when config_id = id -> Some o.metrics.Runner.wall
      | _ -> None)
    outcomes

(* Best simulated wall among [candidates] against config 0: the paper's
   "execution time vs baseline" bars, with the reference figure the paper
   reports for this benchmark (EXPERIMENTS.md). *)
let speedup_sim ~paper_pct ~candidates outcomes =
  let base = Option.get (wall_of_config outcomes 0) in
  let best_id, best =
    List.fold_left
      (fun (bi, bw) id ->
        match wall_of_config outcomes id with
        | Some w when w < bw -> (id, w)
        | _ -> (bi, bw))
      (0, base) candidates
  in
  let reduction = 100.0 *. (base -. best) /. base in
  [
    ("sim_speedup", base /. best, "x");
    ("sim_wall_reduction_pct", reduction, "%");
    ("sim_best_config", float_of_int best_id, "id");
    ("sim_paper_gap_pp", Float.abs (reduction -. paper_pct), "pp");
  ]

let served outcomes =
  List.filter_map
    (fun o ->
      match o.detail with
      | Served { config_id; load; report; waits; _ } -> Some (config_id, load, report, waits)
      | _ -> None)
    outcomes

let us cycles = float_of_int cycles /. float_of_int Slo.cycles_per_us

let mean_wait waits lo hi =
  let s = ref 0 in
  for i = lo to hi - 1 do s := !s + waits.(i) done;
  if hi > lo then float_of_int !s /. float_of_int (hi - lo) else 0.0

(* A load is sustained when the last decile of arrivals waits at most
   twice as long as the first (plus 1 us, so an idle first decile does
   not turn one queued request into a backlog). *)
let sustained waits =
  let n = Array.length waits in
  let d = max 1 (n / 10) in
  mean_wait waits (n - d) n <= (2.0 *. mean_wait waits 0 d) +. float_of_int Slo.cycles_per_us

let serve_config = 18
let serve_probe_load = 1600.0

let serve_sim outcomes =
  let rows = served outcomes in
  let at id load =
    List.find_map
      (fun (i, l, r, _) -> if i = id && l = load then Some r else None)
      rows
    |> Option.get
  in
  let probe = at serve_config serve_probe_load in
  let base = at 0 serve_probe_load in
  let mine = List.filter (fun (i, _, _, _) -> i = serve_config) rows in
  let max_load =
    List.fold_left
      (fun acc (_, load, (r : Slo.report), waits) ->
        if r.Slo.p999 <= slo && sustained waits then Float.max acc load else acc)
      0.0 mine
  in
  let viol, reqs =
    List.fold_left
      (fun (v, n) (_, _, (r : Slo.report), _) -> (v + r.Slo.violations, n + r.Slo.requests))
      (0, 0) mine
  in
  [
    ("sim_speedup", base.Slo.mean /. probe.Slo.mean, "x");
    ("sim_p50_us", us probe.Slo.p50, "us");
    ("sim_p999_us", us probe.Slo.p999, "us");
    ("sim_p999_samples", float_of_int probe.Slo.requests, "requests");
    (* The highest percentile with ten samples beyond it at this count. *)
    ("sim_tail_pct", Option.value (Report.tail_pct probe.Slo.requests) ~default:0.0, "%");
    ("sim_max_load_at_slo", max_load, "req/Mcycle");
    ("sim_slo_miss_frac", Report.ratio (float_of_int viol) (float_of_int reqs), "1");
  ]

let tier_sim outcomes =
  let find family capacity =
    List.find_map
      (fun o ->
        match o.detail with
        | Tiered t when t.family = family && t.capacity = capacity -> Some (o, t.far_peak)
        | _ -> None)
      outcomes
    |> Option.get
  in
  let wall fam cap = (fst (find fam cap)).metrics.Runner.wall in
  let families =
    List.sort_uniq compare
      (List.filter_map
         (fun o -> match o.detail with Tiered t -> Some t.family | _ -> None)
         outcomes)
  in
  let top = 64 in
  [
    ("sim_speedup", wall "synthetic" 0 /. wall "synthetic" top, "x");
    ( "sim_tier_wall_cost_pct",
      100.0 *. (wall "synthetic" top -. wall "synthetic" 0) /. wall "synthetic" 0,
      "%" );
    ( "sim_dram_saved_kib",
      List.fold_left (fun acc f -> acc +. (float_of_int (snd (find f top)) /. 1024.0)) 0.0 families,
      "KiB" );
  ]

(* ------------------------------------------------------------------ *)
(* Output invariants that hold for every seed                          *)
(* ------------------------------------------------------------------ *)

(* Configs 0 and 1 are the same knob vector, so their outputs must agree. *)
let same_knobs_check outcomes =
  match
    List.filter_map
      (fun (label, o) ->
        match o.detail with
        | Plain { config_id = 0 | 1 } -> Some (label, o.text)
        | _ -> None)
      outcomes
  with
  | [ (_, a); (l, b) ] when a <> b -> [ (l, "differs from cfg0 (same knobs)") ]
  | _ -> []

let serve_check outcomes =
  List.filter_map
    (fun (label, o) ->
      match o.detail with
      | Served { report; histogram; _ } ->
          let r = report in
          if r.Slo.gets + r.Slo.updates + r.Slo.scans <> r.Slo.requests
             || Array.fold_left ( + ) 0 histogram <> r.Slo.requests
          then Some (label, "request counts disagree")
          else None
      | _ -> None)
    outcomes

let tier_check outcomes =
  List.filter_map
    (fun (label, o) ->
      match o.detail with
      | Tiered { capacity; far_peak; _ } ->
          if capacity = 0 && (far_peak <> 0 || o.counts.far_loads <> 0) then
            Some (label, "far tier used at capacity 0")
          else if far_peak > capacity * 64 * 1024 then Some (label, "far tier over capacity")
          else None
      | _ -> None)
    outcomes

(* ------------------------------------------------------------------ *)
(* The workloads                                                       *)
(* ------------------------------------------------------------------ *)

(* Sizes are the figures' own experiments, scaled so that one pass over a
   workload's jobs takes 3-5 s on a quiet 2-vCPU Xeon VM.  A 20 s run then
   repeats it three to seven times, enough for a median. *)

type t = {
  name : string;
  jobs : seed:int -> job list;
  sim : outcome list -> sim;
  check : (string * outcome) list -> (string * string) list;
}

let all_configs = List.map fst Config.table2

let f4_sweep =
  {
    name = "f4-sweep";
    jobs =
      (fun ~seed ->
        let exp = Fig_synthetic.experiment ~scale:16 () in
        List.map (runner_job exp ~run:seed) all_configs);
    sim = speedup_sim ~paper_pct:30.0 ~candidates:(List.filter (fun i -> i >= 2) all_configs);
    check = same_knobs_check;
  }

let graph_mc =
  {
    name = "graph-mc";
    jobs =
      (fun ~seed ->
        let exp =
          Fig_graph.mc_experiment ~max_expansions:8_000 ~dataset:Dataset.uk_mc ~scale:8 ()
        in
        List.map (runner_job exp ~run:seed) [ 0; 4; 18 ]);
    sim = speedup_sim ~paper_pct:45.0 ~candidates:[ 4; 18 ];
    check = (fun _ -> []);
  }

let serve_ladder =
  {
    name = "serve-ladder";
    jobs =
      (fun ~seed ->
        let duration = Serve.default.Serve.duration / 2 in
        List.concat_map
          (fun id ->
            List.map (serve_job ~seed ~duration id) [ 200.; 400.; 800.; 1600.; 3200. ])
          [ 0; serve_config ]);
    sim = serve_sim;
    check = serve_check;
  }

(* Fig_tier's serving family runs out of heap below scale 2 (its heap
   shrinks with the scale faster than its live set), so it stays at
   scale 2 while the other families run at scale 8. *)
let tier_families () =
  let serve = List.assoc "serve" (Fig_tier.families ~scale:2 ()) in
  List.map
    (fun (f, exp) -> (f, if f = "serve" then serve else exp))
    (Fig_tier.families ~scale:8 ())

let tier_sweep =
  {
    name = "tier-sweep";
    jobs =
      (fun ~seed ->
        List.concat_map
          (fun fam -> List.map (tier_job fam ~run:seed) [ 0; 16; 64 ])
          (tier_families ()));
    sim = tier_sim;
    check = tier_check;
  }

let all = [ f4_sweep; graph_mc; serve_ladder; tier_sweep ]
