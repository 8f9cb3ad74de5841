(* hcsgc-run: command-line driver for single experiments.

   Examples:
     hcsgc-run synthetic --config 16 --elements 50000
     hcsgc-run synthetic --all-configs --runs 5
     hcsgc-run graph --algo mc --dataset uk --config 4
     hcsgc-run h2 --config 7
     hcsgc-run specjbb --config 0
     hcsgc-run figure f9 --runs 5 --scale 2 *)

open Cmdliner
module E = Hcsgc_experiments
module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module Layout = Hcsgc_heap.Layout
module H = Hcsgc_memsim.Hierarchy

let fmt = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Common options                                                      *)
(* ------------------------------------------------------------------ *)

let config_id =
  let doc = "Table 2 configuration id (0-18); 0 is unmodified ZGC." in
  Arg.(value & opt int 0 & info [ "config"; "c" ] ~docv:"ID" ~doc)

let all_configs =
  let doc = "Sweep all 19 configurations and print the figure panels." in
  Arg.(value & flag & info [ "all-configs"; "a" ] ~doc)

let runs =
  let doc = "Sample size per configuration (with --all-configs)." in
  Arg.(value & opt int 3 & info [ "runs" ] ~docv:"N" ~doc)

let jobs =
  let doc =
    "Worker domains for sweeps (with --all-configs). The default is the \
     machine's recommended domain count, clamped. Results are aggregated \
     in job order, so output is identical at any $(docv)."
  in
  Arg.(value
      & opt int (Hcsgc_exec.Pool.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let scale =
  let doc = "Divide workload size by $(docv)." in
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"K" ~doc)

let saturated =
  let doc = "Pin mutator and GC to a single core (Fig. 6 setup)." in
  Arg.(value & flag & info [ "saturated" ] ~doc)

let seed =
  let doc = "Workload seed." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let gc_log_flag =
  let doc = "Print the structured GC event log after the run." in
  Arg.(value & flag & info [ "gc-log" ] ~doc)

let trace_out =
  let doc =
    "Write a Chrome trace-event JSON profile of the run to $(docv) \
     (load it in Perfetto or chrome://tracing), plus a CSV counter \
     time-series and a plain-text summary next to it."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let trace_sample =
  let doc = "Counter sampling interval in simulated cycles (with --trace-out)." in
  Arg.(value & opt int 50_000 & info [ "trace-sample" ] ~docv:"N" ~doc)

let verify_flag =
  let doc =
    "Run under the heap sanitizer: full-heap invariant verification plus \
     the differential mark-sweep oracle at every GC phase boundary. \
     Verification is read-only, so results are byte-identical to an \
     unverified run; corruption aborts with a diagnostic. Also enabled by \
     HCSGC_VERIFY=1 in the environment."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let cache_dir =
  let doc =
    "Persistent result store for sweep jobs (with --all-configs). Jobs \
     are content-addressed by experiment parameters, configuration \
     knobs, seed and verify flag; warm sweeps are byte-identical to cold \
     ones and only faster."
  in
  Arg.(value
      & opt string E.Runner.default_cache_dir
      & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let no_cache =
  let doc = "Disable the result store entirely." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let refresh_flag =
  let doc =
    "Recompute every job and overwrite its result-store entry (use after \
     changes the fingerprint cannot see, e.g. to re-measure timings)."
  in
  Arg.(value & flag & info [ "refresh" ] ~doc)

let cache_of ~no_cache ~refresh ~cache_dir =
  if no_cache then None
  else Some (E.Runner.cache ~refresh ~dir:cache_dir ())

(* Far-memory tier knobs, accepted by every workload command.  Default
   off (capacity 0), which leaves each command's output byte-identical to
   the tier-free build. *)

let tier_capacity =
  let doc =
    "Far-memory tier capacity in small pages; 0 (default) disables \
     tiering. Cold pages (no hot evidence across a GC cycle) are demoted \
     behind DRAM at mark end and promoted back on barrier access. \
     Requires a HOTNESS configuration."
  in
  Arg.(value & opt int 0 & info [ "tier-capacity" ] ~docv:"PAGES" ~doc)

let lat_far_arg =
  let doc =
    "Far-tier access latency in cycles (a demand load into a far-resident \
     line pays $(docv) instead of DRAM latency)."
  in
  Arg.(value & opt int 800 & info [ "lat-far" ] ~docv:"CYCLES" ~doc)

let tier_no_promote =
  let doc =
    "Leave far pages stranded on mutator access (demote-only tiering) \
     instead of promoting them back to DRAM."
  in
  Arg.(value & flag & info [ "tier-no-promote" ] ~doc)

let apply_tier ~capacity ~lat_far ~no_promote config =
  if capacity = 0 then config
  else
    match
      Config.validate
        {
          config with
          Config.tier_capacity_pages = capacity;
          lat_far;
          tier_promote = not no_promote;
        }
    with
    | Ok c -> c
    | Error e ->
        Format.eprintf "invalid tier flags: %s@." e;
        exit 2

(* ------------------------------------------------------------------ *)
(* Telemetry artefacts                                                 *)
(* ------------------------------------------------------------------ *)

module Tel = Hcsgc_telemetry

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let sibling path ext = Filename.remove_extension path ^ ext

(* One profiled run produces three artefacts: the trace itself, a CSV of
   the counter samples, and a perf-report-style text summary (also echoed
   to stdout). *)
let emit_artifacts ~trace_out recorder =
  let csv_path = sibling trace_out ".csv" in
  let summary_path = sibling trace_out ".summary.txt" in
  write_file trace_out (Tel.Chrome_trace.to_string recorder);
  write_file csv_path (Tel.Csv_export.to_string recorder);
  let summary = Tel.Summary.to_string recorder in
  write_file summary_path summary;
  Format.fprintf fmt "%s@." summary;
  Format.fprintf fmt "wrote %s, %s, %s@." trace_out csv_path summary_path

let report_single vm =
  let st = Vm.gc_stats vm in
  let c = Vm.counters vm in
  let mc = Vm.mutator_counters vm in
  Format.fprintf fmt "execution time: %d cycles@." (Vm.wall_cycles vm);
  Format.fprintf fmt "  mutator=%d stw=%d gc(concurrent)=%d@."
    (Vm.mutator_cycles vm) (Vm.stw_cycles vm) (Vm.gc_cycles vm);
  Format.fprintf fmt "GC: %d cycles, EC median %.1f small pages, %d freed pages@."
    (Gc_stats.cycles st)
    (Gc_stats.median_small_pages_in_ec st)
    (Gc_stats.pages_freed st);
  Format.fprintf fmt "relocation: %d by mutator, %d by GC (%d bytes)@."
    (Gc_stats.objects_relocated_by_mutator st)
    (Gc_stats.objects_relocated_by_gc st)
    (Gc_stats.bytes_relocated st);
  Format.fprintf fmt "hotness flags: %d@." (Gc_stats.hot_flags st);
  Format.fprintf fmt "cache (whole process): loads=%d l1m=%d llcm=%d@." c.H.loads
    c.H.l1_misses c.H.llc_misses;
  Format.fprintf fmt "cache (mutator only):  loads=%d l1m=%d llcm=%d@."
    mc.H.loads mc.H.l1_misses mc.H.llc_misses;
  match Vm.tier vm with
  | None -> ()
  | Some t ->
      Format.fprintf fmt
        "far tier: %d far loads, %d pages demoted, %d promoted, peak %d KiB@."
        (Vm.far_loads vm) (Gc_stats.pages_demoted st)
        (Gc_stats.pages_promoted st)
        (Hcsgc_memsim.Tier.peak_bytes t / 1024)

let store_line store =
  let s = Hcsgc_store.Result_store.counters store in
  Tel.Summary.store_line
    ~dir:(Hcsgc_store.Result_store.dir store)
    ~hits:s.Hcsgc_store.Result_store.hits
    ~misses:s.Hcsgc_store.Result_store.misses
    ~corrupt:s.Hcsgc_store.Result_store.corrupt
    ~stored:s.Hcsgc_store.Result_store.stored
    ~bytes_read:s.Hcsgc_store.Result_store.bytes_read
    ~bytes_written:s.Hcsgc_store.Result_store.bytes_written

let run_experiment ?trace_out ?(trace_sample = 50_000) ?(verify = false)
    ?cache ?(tier = (0, 800, false)) ~all ~runs ~jobs ~config_id
    (exp : E.Runner.experiment) =
  let tier_cap, tier_lat, tier_nop = tier in
  if all then begin
    if trace_out <> None then
      Format.eprintf "[run] --trace-out ignored with --all-configs@.";
    if tier_cap > 0 then
      Format.eprintf
        "[run] tier flags ignored with --all-configs (Table 2 sweep; use \
         the tier command for capacity sweeps)@.";
    let results =
      E.Runner.run_configs ~runs ~jobs ~verify ?cache
        ~progress:(fun m -> Format.eprintf "[run] %s@." m)
        exp
    in
    E.Report.figure fmt ~title:exp.E.Runner.name
      ~expectation:"(ad-hoc sweep; see bench/main.exe for paper figures)"
      results;
    match cache with
    | Some c -> Format.eprintf "[run] %s@." (store_line c.E.Runner.store)
    | None -> ()
  end
  else begin
    let config =
      apply_tier ~capacity:tier_cap ~lat_far:tier_lat ~no_promote:tier_nop
        (Config.of_id config_id)
    in
    Format.fprintf fmt "workload %s under config %d (%s)%s@." exp.E.Runner.name
      config_id (Config.to_string config)
      (if verify then " [verified]" else "");
    let vm = exp.E.Runner.make_vm config in
    if verify then Vm.enable_verification vm;
    let recorder =
      match trace_out with
      | None -> None
      | Some _ ->
          Some (Vm.enable_telemetry ~sample_interval:trace_sample vm)
    in
    exp.E.Runner.workload vm ~run:0;
    Vm.finish vm;
    report_single vm;
    match (trace_out, recorder) with
    | Some path, Some recorder -> emit_artifacts ~trace_out:path recorder
    | _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* synthetic                                                           *)
(* ------------------------------------------------------------------ *)

let synthetic_cmd =
  let elements =
    Arg.(value & opt int 100_000 & info [ "elements" ] ~docv:"N"
           ~doc:"Array length.")
  in
  let phases =
    Arg.(value & opt int 1 & info [ "phases" ] ~docv:"P"
           ~doc:"Access-pattern phases (Fig. 5 uses 3).")
  in
  let cold_ratio =
    Arg.(value & opt int 0 & info [ "cold-ratio" ] ~docv:"R"
           ~doc:"Never-accessed cold elements per hot element (Fig. 6 uses 10).")
  in
  let run config_id all runs jobs scale saturated _seed elements phases
      cold_ratio trace_out trace_sample verify cache_dir no_cache
      refresh tier_cap tier_lat tier_nop =
    let scale = max 1 (scale * (100_000 / max 1 elements)) in
    let exp =
      E.Fig_synthetic.experiment ~phases ~cold_ratio ~saturated ~scale ()
    in
    run_experiment ?trace_out ~trace_sample ~verify
      ?cache:(cache_of ~no_cache ~refresh ~cache_dir)
      ~tier:(tier_cap, tier_lat, tier_nop) ~all ~runs ~jobs ~config_id exp
  in
  Cmd.v
    (Cmd.info "synthetic" ~doc:"The paper's synthetic micro-benchmark (§4.4)")
    Term.(
      const run $ config_id $ all_configs $ runs $ jobs $ scale $ saturated
      $ seed $ elements $ phases $ cold_ratio $ trace_out
      $ trace_sample $ verify_flag $ cache_dir $ no_cache $ refresh_flag
      $ tier_capacity $ lat_far_arg $ tier_no_promote)

(* ------------------------------------------------------------------ *)
(* graph                                                               *)
(* ------------------------------------------------------------------ *)

let graph_cmd =
  let algo =
    let parse = function
      | "cc" -> Ok `Cc
      | "mc" -> Ok `Mc
      | s -> Error (`Msg ("unknown algorithm: " ^ s))
    in
    let print fmt a =
      Format.pp_print_string fmt (match a with `Cc -> "cc" | `Mc -> "mc")
    in
    Arg.(value
        & opt (conv (parse, print)) `Cc
        & info [ "algo" ] ~docv:"cc|mc" ~doc:"Connected components or maximal cliques.")
  in
  let dataset =
    let parse = function
      | "uk" -> Ok `Uk
      | "enwiki" -> Ok `Enwiki
      | s -> Error (`Msg ("unknown dataset: " ^ s))
    in
    let print fmt d =
      Format.pp_print_string fmt (match d with `Uk -> "uk" | `Enwiki -> "enwiki")
    in
    Arg.(value
        & opt (conv (parse, print)) `Uk
        & info [ "dataset" ] ~docv:"uk|enwiki" ~doc:"Table 3 input (generator stand-in).")
  in
  let run config_id all runs jobs scale _saturated _seed algo dataset
      trace_out trace_sample verify cache_dir no_cache refresh tier_cap
      tier_lat tier_nop =
    let module D = Hcsgc_graph.Dataset in
    let exp =
      match (algo, dataset) with
      | `Cc, `Uk ->
          E.Fig_graph.cc_experiment ~dataset:D.uk_cc
            ~scale:(4 * scale) ()
      | `Cc, `Enwiki ->
          E.Fig_graph.cc_experiment ~dataset:D.enwiki_cc
            ~scale:(4 * scale) ()
      | `Mc, `Uk ->
          E.Fig_graph.mc_experiment ~dataset:D.uk_mc
            ~scale:(2 * scale) ()
      | `Mc, `Enwiki ->
          E.Fig_graph.mc_experiment ~dataset:D.enwiki_mc
            ~scale:(2 * scale) ()
    in
    run_experiment ?trace_out ~trace_sample ~verify
      ?cache:(cache_of ~no_cache ~refresh ~cache_dir)
      ~tier:(tier_cap, tier_lat, tier_nop) ~all ~runs ~jobs ~config_id exp
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"JGraphT-style graph workloads (§4.5)")
    Term.(
      const run $ config_id $ all_configs $ runs $ jobs $ scale $ saturated
      $ seed $ algo $ dataset $ trace_out $ trace_sample
      $ verify_flag $ cache_dir $ no_cache $ refresh_flag $ tier_capacity
      $ lat_far_arg $ tier_no_promote)

(* ------------------------------------------------------------------ *)
(* h2 / tradebeans / specjbb                                           *)
(* ------------------------------------------------------------------ *)

let h2_cmd =
  let run config_id all runs jobs scale _ _ trace_out
      trace_sample verify cache_dir no_cache refresh tier_cap tier_lat
      tier_nop =
    run_experiment ?trace_out ~trace_sample ~verify
      ?cache:(cache_of ~no_cache ~refresh ~cache_dir)
      ~tier:(tier_cap, tier_lat, tier_nop) ~all ~runs ~jobs ~config_id
      (E.Fig_dacapo.h2_experiment ~scale ())
  in
  Cmd.v
    (Cmd.info "h2" ~doc:"In-memory-database workload (DaCapo h2 stand-in, §4.6)")
    Term.(
      const run $ config_id $ all_configs $ runs $ jobs $ scale $ saturated
      $ seed $ trace_out $ trace_sample $ verify_flag
      $ cache_dir $ no_cache $ refresh_flag $ tier_capacity $ lat_far_arg
      $ tier_no_promote)

let tradebeans_cmd =
  let run config_id all runs jobs scale _ _ trace_out
      trace_sample verify cache_dir no_cache refresh tier_cap tier_lat
      tier_nop =
    run_experiment ?trace_out ~trace_sample ~verify
      ?cache:(cache_of ~no_cache ~refresh ~cache_dir)
      ~tier:(tier_cap, tier_lat, tier_nop) ~all ~runs ~jobs ~config_id
      (E.Fig_dacapo.tradebeans_experiment ~scale ())
  in
  Cmd.v
    (Cmd.info "tradebeans"
       ~doc:"Trading-session workload (DaCapo tradebeans stand-in, §4.6)")
    Term.(
      const run $ config_id $ all_configs $ runs $ jobs $ scale $ saturated
      $ seed $ trace_out $ trace_sample $ verify_flag
      $ cache_dir $ no_cache $ refresh_flag $ tier_capacity $ lat_far_arg
      $ tier_no_promote)

let specjbb_cmd =
  let run config_id _all _runs scale _ seed verify =
    let module S = Hcsgc_workloads.Specjbb_sim in
    let config = Config.of_id config_id in
    let params = E.Fig_specjbb.experiment_params ~scale in
    let vm =
      Vm.create
        ~layout:(Layout.scaled ~small_page:(64 * 1024))
        ~machine_config:E.Scaled_machine.config
        ~mutators:params.S.handlers ~config
        ~max_heap:(24 * 1024 * 1024) ()
    in
    if verify then Vm.enable_verification vm;
    let r = S.run vm { params with S.seed } in
    Vm.finish vm;
    Format.fprintf fmt "throughput (max-jOPS-like):    %.2f txn/Mcycle@."
      r.S.max_jops;
    Format.fprintf fmt "latency (critical-jOPS-like):  %.2f txn/Mcycle@."
      r.S.critical_jops;
    Format.fprintf fmt "mean latency: %.0f cycles; survival: %.2f%%@."
      r.S.mean_latency
      (100.0 *. r.S.survival_rate);
    report_single vm
  in
  Cmd.v
    (Cmd.info "specjbb" ~doc:"SPECjbb2015-style ramping workload (§4.7)")
    Term.(
      const run $ config_id $ all_configs $ runs $ scale $ saturated
      $ seed $ verify_flag)

let lru_cmd =
  let run config_id gc_log seed verify =
    let module L = Hcsgc_workloads.Lru_sim in
    let config = Config.of_id config_id in
    let vm =
      Vm.create
        ~layout:(Layout.scaled ~small_page:(64 * 1024))
        ~machine_config:E.Scaled_machine.config ~gc_log ~config
        ~max_heap:(4 * 1024 * 1024) ()
    in
    if verify then Vm.enable_verification vm;
    let r = L.run vm { L.default with L.seed } in
    Vm.finish vm;
    Format.fprintf fmt "gets=%d hits=%d (%.1f%%) puts=%d evictions=%d@."
      r.L.gets r.L.hits
      (100.0 *. float_of_int r.L.hits /. float_of_int (max 1 r.L.gets))
      r.L.puts r.L.evictions;
    report_single vm;
    if gc_log then
      match Vm.gc_log vm with
      | Some recorder ->
          Format.fprintf fmt "@.-- GC event log (newest window) --@.%a"
            Hcsgc_core.Gc_log.pp recorder
      | None -> ()
  in
  Cmd.v
    (Cmd.info "lru" ~doc:"LRU object-cache service (pointer-surgery workload)")
    Term.(const run $ config_id $ gc_log_flag $ seed $ verify_flag)

(* ------------------------------------------------------------------ *)
(* serve: the KV serving tier with SLO accounting                      *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let module Serve = Hcsgc_serve.Serve in
  let module Slo = Hcsgc_serve.Slo in
  let module Arrival = Hcsgc_serve.Arrival in
  let module Keydist = Hcsgc_workloads.Keydist in
  let d = Serve.default in
  let keys =
    Arg.(value & opt int d.Serve.keys & info [ "keys" ] ~docv:"N"
           ~doc:"Distinct keys in the store (all prepopulated).")
  in
  let value_words =
    Arg.(value & opt int d.Serve.value_words & info [ "value-words" ]
           ~docv:"W" ~doc:"Payload words per entry.")
  in
  let mutators =
    Arg.(value & opt int d.Serve.mutators & info [ "mutators" ] ~docv:"N"
           ~doc:"Serving threads; keys are sharded across them by key mod N.")
  in
  let dist =
    Arg.(value & opt string "zipf:0.99" & info [ "dist" ] ~docv:"SPEC"
           ~doc:"Key distribution: uniform, hotset:HOT,BIAS, zipf[:THETA], \
                 seq[:STRIDE].")
  in
  let mix =
    Arg.(value & opt string "60,35,5" & info [ "mix" ] ~docv:"G,U,S"
           ~doc:"Request mix as get,update,scan percentages (sum 100).")
  in
  let scan_len =
    Arg.(value & opt int d.Serve.mix.Serve.scan_len & info [ "scan-len" ]
           ~docv:"L" ~doc:"Consecutive slots read per scan request.")
  in
  let arrivals =
    Arg.(value & opt string "constant" & info [ "arrivals" ] ~docv:"PROC"
           ~doc:"Arrival process: constant, diurnal[:TROUGH], \
                 bursty[:PERIOD,BURST,MULT].")
  in
  let load =
    Arg.(value & opt float d.Serve.load & info [ "load" ] ~docv:"R"
           ~doc:"Offered load in requests per megacycle (open loop).")
  in
  let duration =
    Arg.(value & opt int (d.Serve.duration / 1_000_000) & info [ "duration" ]
           ~docv:"MC" ~doc:"Arrival window in megacycles.")
  in
  let slo_us =
    Arg.(value & opt int 5 & info [ "slo-us" ] ~docv:"US"
           ~doc:"Latency SLO in microseconds (at 3 GHz); 0 disables \
                 violation accounting.")
  in
  let heap_mb =
    Arg.(value & opt int 8 & info [ "heap-mb" ] ~docv:"MB"
           ~doc:"Max heap in MiB.")
  in
  let run config_id keys value_words mutators dist mix scan_len arrivals load
      duration slo_us heap_mb seed trace_out trace_sample verify tier_cap
      tier_lat tier_nop =
    let fail fmt_str = Format.kasprintf (fun m -> Format.eprintf "%s@." m; exit 2) fmt_str in
    let dist =
      match Keydist.spec_of_string dist with
      | Ok s -> s
      | Error e -> fail "%s" e
    in
    let process =
      match Arrival.process_of_string arrivals with
      | Ok p -> p
      | Error e -> fail "%s" e
    in
    let gets, updates, scans =
      match String.split_on_char ',' mix |> List.map int_of_string_opt with
      | [ Some g; Some u; Some s ] -> (g, u, s)
      | _ -> fail "bad --mix %S (expected G,U,S percentages)" mix
    in
    let p =
      {
        Serve.keys;
        value_words;
        mutators;
        dist;
        mix = { Serve.gets; updates; scans; scan_len };
        process;
        load;
        duration = duration * 1_000_000;
        seed;
      }
    in
    let config =
      apply_tier ~capacity:tier_cap ~lat_far:tier_lat ~no_promote:tier_nop
        (Config.of_id config_id)
    in
    Format.fprintf fmt "serve under config %d (%s)%s@." config_id
      (Config.to_string config)
      (if verify then " [verified]" else "");
    let vm =
      Vm.create
        ~layout:(Layout.scaled ~small_page:(64 * 1024))
        ~machine_config:E.Scaled_machine.config ~mutators ~trigger:0.10
        ~config
        ~max_heap:(heap_mb * 1024 * 1024)
        ()
    in
    if verify then Vm.enable_verification vm;
    (* Telemetry is always on here: pause intervals feed the SLO
       attribution (and it charges no simulated cycles). *)
    let recorder = Vm.enable_telemetry ~sample_interval:trace_sample vm in
    let r = Serve.run vm p in
    Vm.finish vm;
    let report =
      Slo.analyze
        ~slo:(slo_us * Slo.cycles_per_us)
        ~duration:p.Serve.duration
        ~pauses:(Hcsgc_telemetry.Analyzer.pause_intervals recorder)
        r
    in
    Format.fprintf fmt "%a@." Slo.pp report;
    Format.fprintf fmt "%a@." Slo.pp_histogram (Slo.histogram r.Serve.requests);
    Format.fprintf fmt "checksum: %d@.@." r.Serve.checksum;
    report_single vm;
    match trace_out with
    | Some path -> emit_artifacts ~trace_out:path recorder
    | None -> ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Simulated KV-store serving tier: open-loop arrivals, sharded \
          serving threads, tail-latency SLO accounting with GC-pause \
          attribution")
    Term.(
      const run $ config_id $ keys $ value_words $ mutators $ dist $ mix
      $ scan_len $ arrivals $ load $ duration $ slo_us $ heap_mb $ seed
      $ trace_out $ trace_sample $ verify_flag $ tier_capacity $ lat_far_arg
      $ tier_no_promote)

(* ------------------------------------------------------------------ *)
(* profile: one (experiment, config) pair with full telemetry          *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let exp_names =
    [ "f4"; "f5"; "f6"; "cc-uk"; "cc-enwiki"; "mc-uk"; "mc-enwiki"; "h2";
      "tradebeans" ]
  in
  let exp_arg =
    let doc =
      Printf.sprintf "Experiment to profile: %s."
        (String.concat ", " exp_names)
    in
    Arg.(value & opt string "f4" & info [ "exp" ] ~docv:"NAME" ~doc)
  in
  let experiment_of ~scale name =
    let module D = Hcsgc_graph.Dataset in
    match name with
    | "f4" -> Some (E.Fig_synthetic.experiment ~scale ())
    | "f5" -> Some (E.Fig_synthetic.experiment ~phases:3 ~scale ())
    | "f6" ->
        Some
          (E.Fig_synthetic.experiment ~cold_ratio:10 ~saturated:true
             ~heap_mult:2 ~scale ())
    | "cc-uk" ->
        Some (E.Fig_graph.cc_experiment ~dataset:D.uk_cc ~scale:(4 * scale) ())
    | "cc-enwiki" ->
        Some
          (E.Fig_graph.cc_experiment ~dataset:D.enwiki_cc ~scale:(4 * scale) ())
    | "mc-uk" -> Some (E.Fig_graph.mc_experiment ~dataset:D.uk_mc ~scale:(2 * scale) ())
    | "mc-enwiki" ->
        Some (E.Fig_graph.mc_experiment ~dataset:D.enwiki_mc ~scale:(2 * scale) ())
    | "h2" -> Some (E.Fig_dacapo.h2_experiment ~scale ())
    | "tradebeans" -> Some (E.Fig_dacapo.tradebeans_experiment ~scale ())
    | _ -> None
  in
  let run config_id scale exp_name trace_out trace_sample seed verify
      cache_dir no_cache refresh =
    match experiment_of ~scale exp_name with
    | None ->
        Format.eprintf "unknown experiment %S (expected one of: %s)@." exp_name
          (String.concat ", " exp_names);
        exit 2
    | Some exp ->
        let trace_out = Option.value trace_out ~default:"trace.json" in
        Format.fprintf fmt "profiling %s under config %d (%s)%s@."
          exp.E.Runner.name config_id
          (Config.to_string (Config.of_id config_id))
          (if verify then " [verified]" else "");
        let job = { E.Runner.exp; config_id; run = seed } in
        let cache = cache_of ~no_cache ~refresh ~cache_dir in
        let metrics, recorder =
          E.Runner.profile ~sample_interval:trace_sample ~verify ?cache job
        in
        Format.fprintf fmt "execution time: %.0f cycles, %d GC cycles@."
          metrics.E.Runner.wall metrics.E.Runner.gc_cycle_count;
        emit_artifacts ~trace_out recorder;
        Option.iter
          (fun c -> Format.eprintf "[profile] %s@." (store_line c.E.Runner.store))
          cache
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile one (experiment, configuration) pair: run it once with \
          telemetry attached and emit a Chrome trace-event JSON file, a CSV \
          counter time-series and a text summary (pause percentiles, MMU, \
          relocation attribution)")
    Term.(
      const run $ config_id $ scale $ exp_arg $ trace_out $ trace_sample
      $ seed $ verify_flag $ cache_dir $ no_cache $ refresh_flag)

(* ------------------------------------------------------------------ *)
(* fuzz: random-mutator smoke under full verification                  *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let module Fuzz = Hcsgc_fuzz.Fuzz in
  let seeds =
    Arg.(value & opt int 200 & info [ "seeds" ] ~docv:"N"
           ~doc:"Number of consecutive seeds to fuzz (starting at --seed).")
  in
  let ops =
    Arg.(value & opt int 1_500 & info [ "ops" ] ~docv:"N"
           ~doc:"Actions per seed.")
  in
  let slots =
    Arg.(value & opt int 24 & info [ "slots" ] ~docv:"N"
           ~doc:"Root-table slots.")
  in
  let out =
    Arg.(value
        & opt string "fuzz-counterexample.txt"
        & info [ "out" ] ~docv:"FILE"
            ~doc:"Where to write the shrunk counterexample on failure.")
  in
  let no_oracle =
    Arg.(value & flag & info [ "no-oracle" ]
           ~doc:"Skip the mark-sweep reachability oracle (invariants only).")
  in
  let mutators =
    Arg.(value & opt int 1 & info [ "mutators" ] ~docv:"N"
           ~doc:"Deal actions round-robin over $(docv) mutator threads.")
  in
  let run config_id seed seeds ops slots out no_oracle mutators tier_cap
      tier_lat tier_nop =
    let config =
      apply_tier ~capacity:tier_cap ~lat_far:tier_lat ~no_promote:tier_nop
        (Config.of_id config_id)
    in
    Format.fprintf fmt
      "fuzzing %d seed(s) from %d: config %d (%s), %d ops x %d slots, %d \
       mutator(s)@."
      seeds seed config_id (Config.to_string config) ops slots mutators;
    let failed = ref None in
    let i = ref 0 in
    while !failed = None && !i < seeds do
      let s = seed + !i in
      (match
         Fuzz.check_seed ~oracle:(not no_oracle) ~mutators ~config ~slots
           ~ops ~seed:s ()
       with
      | None ->
          if (!i + 1) mod 25 = 0 || !i + 1 = seeds then
            Format.eprintf "[fuzz] %d/%d seeds ok@." (!i + 1) seeds
      | Some cex -> failed := Some cex);
      incr i
    done;
    match !failed with
    | None ->
        Format.fprintf fmt "all %d seeds passed under full verification@." seeds
    | Some cex ->
        let rendered = Format.asprintf "%a" Fuzz.pp_counterexample cex in
        write_file out rendered;
        Format.eprintf "[fuzz] FAILURE (seed %d); minimal counterexample:@.%s@."
          cex.Fuzz.seed rendered;
        Format.eprintf "[fuzz] wrote %s@." out;
        exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the collector: drive a random mutator for many seeds with \
          phase-boundary invariant verification and the mark-sweep oracle \
          enabled, shrinking any failure to a minimal replayable action \
          sequence (written to --out)")
    Term.(
      const run $ config_id $ seed $ seeds $ ops $ slots $ out $ no_oracle
      $ mutators $ tier_capacity $ lat_far_arg $ tier_no_promote)

(* ------------------------------------------------------------------ *)
(* tier: the far-memory capacity sweep                                 *)
(* ------------------------------------------------------------------ *)

let tier_cmd =
  let capacities =
    let doc =
      "Far-tier capacities to sweep, in small pages (64 KiB each at the \
       scaled layout); 0 is the tier-free baseline."
    in
    Arg.(value
        & opt (list int) E.Fig_tier.default_capacities
        & info [ "capacities" ] ~docv:"P1,P2,..." ~doc)
  in
  let run runs jobs scale capacities lat_far no_promote verify cache_dir
      no_cache refresh =
    let cache = cache_of ~no_cache ~refresh ~cache_dir in
    E.Fig_tier.figure ~runs ~jobs ~scale ~capacities ~lat_far
      ~promote:(not no_promote) ~verify ?cache fmt;
    Option.iter
      (fun c -> Format.eprintf "[tier] %s@." (store_line c.E.Runner.store))
      cache
  in
  Cmd.v
    (Cmd.info "tier"
       ~doc:
         "Sweep far-memory tier capacity across the workload families: far \
          hit rate, simulated wall time and DRAM-footprint savings per \
          capacity, under the strongest hotness configuration")
    Term.(
      const run $ runs $ jobs $ scale $ capacities
      $ lat_far_arg $ tier_no_promote $ verify_flag $ cache_dir $ no_cache
      $ refresh_flag)

(* ------------------------------------------------------------------ *)
(* figure: delegate to the bench registry                              *)
(* ------------------------------------------------------------------ *)

let figure_cmd =
  let which =
    Arg.(required
        & pos 0 (some string) None
        & info [] ~docv:"FIG" ~doc:"t1 t2 t3 f4..f13 fserve ftier")
  in
  let run which runs jobs scale cache_dir no_cache refresh =
    let cache = cache_of ~no_cache ~refresh ~cache_dir in
    (match which with
    | "t1" -> E.Tables.t1 fmt
    | "t2" -> E.Tables.t2 fmt
    | "t3" -> E.Tables.t3 ~scale fmt
    | "f4" -> E.Fig_synthetic.fig4 ~runs ~jobs ~scale ?cache fmt
    | "f5" -> E.Fig_synthetic.fig5 ~runs ~jobs ~scale ?cache fmt
    | "f6" -> E.Fig_synthetic.fig6 ~runs ~jobs ~scale ?cache fmt
    | "f7" -> E.Fig_graph.fig7 ~runs ~jobs ~scale ?cache fmt
    | "f8" -> E.Fig_graph.fig8 ~runs ~jobs ~scale ?cache fmt
    | "f9" -> E.Fig_graph.fig9 ~runs ~jobs ~scale ?cache fmt
    | "f10" -> E.Fig_graph.fig10 ~runs ~jobs ~scale ?cache fmt
    | "f11" -> E.Fig_dacapo.fig11 ~runs ~jobs ~scale ?cache fmt
    | "f12" -> E.Fig_dacapo.fig12 ~runs ~jobs ~scale ?cache fmt
    | "f13" -> E.Fig_specjbb.fig13 ~runs ~jobs ~scale fmt
    | "fserve" -> E.Fig_serve.figure ~runs ~jobs ~scale ?cache fmt
    | "ftier" -> E.Fig_tier.figure ~runs ~jobs ~scale ?cache fmt
    | other -> Format.eprintf "unknown figure: %s@." other);
    Option.iter
      (fun c -> Format.eprintf "[figure] %s@." (store_line c.E.Runner.store))
      cache
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate one of the paper's tables or figures")
    Term.(
      const run $ which
      $ Arg.(value & opt int 3 & info [ "runs" ] ~docv:"N" ~doc:"Sample size.")
      $ jobs
      $ Arg.(value & opt int 2 & info [ "scale" ] ~docv:"K" ~doc:"Scale divisor.")
      $ cache_dir $ no_cache $ refresh_flag)

let () =
  let info =
    Cmd.info "hcsgc-run" ~version:"1.0.0"
      ~doc:
        "Run HCSGC experiments: hotness-based GC relocation on a simulated \
         ZGC (PLDI 2020 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ synthetic_cmd; graph_cmd; h2_cmd; tradebeans_cmd; specjbb_cmd;
            lru_cmd; serve_cmd; profile_cmd; fuzz_cmd; tier_cmd; figure_cmd ]))
