(* hcsgc-run: command-line driver for single experiments and the paper's
   tables and figures.

   Examples:
     hcsgc-run synthetic --config 16 --elements 50000
     hcsgc-run synthetic --all-configs --runs 5
     hcsgc-run graph --algo mc --dataset uk --config 4
     hcsgc-run h2 --config 7
     hcsgc-run specjbb --config 0
     hcsgc-run figure f9 f12 --runs 5
     hcsgc-run figure all --full *)

open Cmdliner
module E = Hcsgc_experiments
module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module H = Hcsgc_memsim.Hierarchy
module Result_store = Hcsgc_store.Result_store

let fmt = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Shared terms, one per concern                                       *)
(* ------------------------------------------------------------------ *)

(* Validating converters: a bad value is a usage error (exit 124), never
   an exception deep inside a run. *)
let int_conv ~expected ok =
  let parse s =
    match int_of_string_opt s with
    | Some n when ok n -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive = int_conv ~expected:"a positive integer" (fun n -> n > 0)
let non_negative = int_conv ~expected:"a non-negative integer" (fun n -> n >= 0)

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0.0 -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* A converter over a library's own parser.  The value keeps its
   spelling, so --help prints a default as it was written. *)
let spelled parse =
  Arg.conv'
    ( (fun s -> Result.map (fun v -> (s, v)) (parse s)),
      fun ppf (s, _) -> Format.pp_print_string ppf s )

let spelled_default parse s = (s, Result.get_ok (parse s))

let config_id =
  let doc = "Table 2 configuration id (0-18); 0 is unmodified ZGC." in
  let id =
    int_conv ~expected:"a configuration id in 0-18" (fun n ->
        n >= 0 && n < Config.id_count)
  in
  Arg.(value & opt id 0 & info [ "config"; "c" ] ~docv:"ID" ~doc)

let all_configs =
  let doc = "Sweep all 19 configurations and print the figure panels." in
  Arg.(value & flag & info [ "all-configs"; "a" ] ~doc)

let scale_opt =
  let doc =
    "Divide workload size by $(docv). Defaults to 1; $(b,figure) defaults \
     to each artefact's own scale."
  in
  Arg.(value & opt (some positive) None & info [ "scale" ] ~docv:"K" ~doc)

let scale = Term.(const (Option.value ~default:1) $ scale_opt)

let seed =
  let doc = "Workload seed." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let verify_flag =
  let doc =
    "Run under the heap sanitizer: full-heap invariant verification plus \
     the differential mark-sweep oracle at every GC phase boundary. \
     Verification is read-only, so results are byte-identical to an \
     unverified run; corruption aborts with a diagnostic. Also enabled by \
     HCSGC_VERIFY=1 in the environment."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

(* The result store: [None] with --no-cache. *)
let cache =
  let cache_dir =
    let doc =
      "Persistent result store for sweep jobs. Jobs are content-addressed \
       by experiment parameters, configuration knobs, seed and verify flag; \
       warm sweeps are byte-identical to cold ones and only faster."
    in
    Arg.(value
        & opt string E.Runner.default_cache_dir
        & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let no_cache =
    let doc = "Disable the result store entirely." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let refresh =
    let doc =
      "Recompute every job and overwrite its result-store entry (use after \
       changes the fingerprint cannot see, e.g. to re-measure timings)."
    in
    Arg.(value & flag & info [ "refresh" ] ~doc)
  in
  let make dir no_cache refresh =
    if no_cache then None else Some (E.Runner.cache ~refresh ~dir ())
  in
  Term.(const make $ cache_dir $ no_cache $ refresh)

let report_store tag cache =
  Option.iter
    (fun c ->
      let store = c.E.Runner.store in
      let s = Result_store.counters store in
      Format.eprintf "[%s] %s@." tag
        (Hcsgc_telemetry.Summary.store_line ~dir:(Result_store.dir store)
           ~hits:s.Result_store.hits ~misses:s.Result_store.misses
           ~corrupt:s.Result_store.corrupt ~stored:s.Result_store.stored
           ~bytes_read:s.Result_store.bytes_read
           ~bytes_written:s.Result_store.bytes_written))
    cache

type sweep = {
  runs : int option;  (** [None]: the command's own default *)
  jobs : int;
  cache : E.Runner.cache option;
}

(* Where every sweep runs: every plan's tasks run in one sweep, then each
   plan renders in order.  HCSGC_VERIFY=1 verifies every VM, so it also
   gives every task its verified fingerprint, as --verify does. *)
let render_plans tag ~verify sweep plans =
  E.Runner.render ~jobs:sweep.jobs ?cache:sweep.cache
    ~progress:(fun m -> Format.eprintf "[%s] %s@." tag m)
    ~verify:(verify || Vm.env_verify ())
    plans fmt;
  report_store tag sweep.cache

let sweep =
  let runs =
    let doc =
      "Sample size per configuration. Workload sweeps default to 3; \
       $(b,figure) defaults to each artefact's own size."
    in
    Arg.(value & opt (some positive) None & info [ "runs" ] ~docv:"N" ~doc)
  in
  let jobs =
    let doc =
      "Worker domains for sweeps, at most 127 (OCaml 5.1 runs 128 domains \
       per process, this one included). The default is the machine's \
       recommended domain count, clamped. Results are aggregated in job \
       order, so output is identical at any $(docv)."
    in
    let workers =
      int_conv ~expected:"a worker count in 1-127" (fun n -> n > 0 && n <= 127)
    in
    Arg.(value
        & opt workers (Hcsgc_exec.Pool.default_jobs ())
        & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  Term.(const (fun runs jobs cache -> { runs; jobs; cache })
        $ runs $ jobs $ cache)

(* Far-memory tier knobs.  [None] when --tier-capacity is 0 (the default),
   which leaves each command's output byte-identical to the tier-free
   build; otherwise the function puts the knobs on a configuration and
   runs [Config.validate]'s cross-knob check.  The other two knobs only
   shape a tier, so giving either without a capacity is a usage error. *)
let tier =
  let capacity =
    let doc =
      "Far-memory tier capacity in small pages; 0 (default) disables \
       tiering. Cold pages (no hot evidence across a GC cycle) are demoted \
       behind DRAM at mark end and promoted back on barrier access. \
       Requires a HOTNESS configuration."
    in
    Arg.(value & opt non_negative 0 & info [ "tier-capacity" ] ~docv:"PAGES" ~doc)
  in
  let lat_far =
    let doc =
      "Far-tier access latency in cycles (a demand load into a far-resident \
       line pays $(docv) instead of DRAM latency). Requires \
       $(b,--tier-capacity)."
    in
    Arg.(value
        & opt (some positive) None
        & info [ "lat-far" ]
            ~absent:(string_of_int Config.zgc.Config.lat_far)
            ~docv:"CYCLES" ~doc)
  in
  let no_promote =
    let doc =
      "Leave far pages stranded on mutator access (demote-only tiering) \
       instead of promoting them back to DRAM. Requires \
       $(b,--tier-capacity)."
    in
    Arg.(value & flag & info [ "tier-no-promote" ] ~doc)
  in
  let make capacity lat_far no_promote =
    if capacity > 0 then
      Ok
        (Some
           (fun config ->
             Config.validate
               {
                 config with
                 Config.tier_capacity_pages = capacity;
                 lat_far = Option.value lat_far ~default:config.Config.lat_far;
                 tier_promote = not no_promote;
               }))
    else if Option.is_some lat_far || no_promote then
      Error (`Msg "--lat-far and --tier-no-promote require --tier-capacity")
    else Ok None
  in
  Term.(cli_parse_result (const make $ capacity $ lat_far $ no_promote))

(* The --config row with the tier knobs on it.  A knob the row cannot
   take (TIER requires HOTNESS) is a usage error, like any bad flag; so
   is any tier knob under [all] (a --all-configs sweep runs the plain
   Table 2 rows). *)
let configured ?(all = Term.const false) () =
  let make all config_id tier =
    let config = Config.of_id config_id in
    match tier with
    | None -> Ok config
    | Some _ when all ->
        Error
          (`Msg
            "tier flags do not apply to --all-configs (figure ftier sweeps \
             tier capacities)")
    | Some with_tier ->
        Result.map_error
          (fun e -> `Msg ("invalid tier flags: " ^ e))
          (with_tier config)
  in
  Term.(cli_parse_result (const make $ all $ config_id $ tier))

type trace = { out : string option; sample : int }

let trace =
  let out =
    let doc =
      "Write a Chrome trace-event JSON profile of the run to $(docv) \
       (load it in Perfetto or chrome://tracing), plus a CSV counter \
       time-series and a plain-text summary next to it."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let sample =
    let doc = "Counter sampling interval in simulated cycles." in
    Arg.(value & opt positive 50_000 & info [ "trace-sample" ] ~docv:"N" ~doc)
  in
  Term.(const (fun out sample -> { out; sample }) $ out $ sample)

(* An [enum] over names only: Cmdliner prints defaults by comparing
   values, which functions do not support. *)
let names xs = Arg.enum (List.map (fun (n, _) -> (n, n)) xs)

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

(* ------------------------------------------------------------------ *)
(* synthetic / graph / h2 / tradebeans                                 *)
(* ------------------------------------------------------------------ *)

let run_experiment config_id config all sweep trace verify
    (exp : E.Runner.experiment) =
  if all then
    render_plans "run" ~verify sweep
      [
        E.Report.plan ~title:exp.E.Runner.name
          ~expectation:"(ad-hoc sweep; see hcsgc-run figure for paper figures)"
          ~runs:(Option.value sweep.runs ~default:3)
          exp;
      ]
  else begin
    Format.fprintf fmt "workload %s under config %d (%s)%s@." exp.E.Runner.name
      config_id (Config.to_string config)
      (if verify then " [verified]" else "");
    let vm = exp.E.Runner.make_vm config in
    if verify then Vm.enable_verification vm;
    let traced =
      Option.map
        (fun path ->
          (path, Vm.enable_telemetry ~sample_interval:trace.sample vm))
        trace.out
    in
    exp.E.Runner.workload vm ~run:0;
    Vm.finish vm;
    report_single vm;
    Option.iter
      (fun (path, recorder) -> emit_artifacts ~trace_out:path recorder)
      traced
  end

(* One constructor for the Table 2 workload commands: they share every
   flag, and [exp] adds the command's own workload flags, giving the
   experiment at a --scale. *)
let workload_cmd name ~doc exp =
  let run config_id config all sweep scale trace verify exp =
    run_experiment config_id config all sweep trace verify (exp scale)
  in
  (* A sweep writes no trace, so --trace-out with it is a usage error. *)
  let trace =
    let check all trace =
      if all && trace.out <> None then
        Error (`Msg "--trace-out does not apply to --all-configs")
      else Ok trace
    in
    Term.(cli_parse_result (const check $ all_configs $ trace))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ config_id $ configured ~all:all_configs () $ all_configs
      $ sweep $ scale $ trace $ verify_flag $ exp)

let synthetic_cmd =
  let saturated =
    let doc = "Pin mutator and GC to a single core (Fig. 6 setup)." in
    Arg.(value & flag & info [ "saturated" ] ~doc)
  in
  let elements =
    Arg.(value & opt positive 100_000 & info [ "elements" ] ~docv:"N"
           ~doc:"Array length.")
  in
  let phases =
    Arg.(value & opt positive 1 & info [ "phases" ] ~docv:"P"
           ~doc:"Access-pattern phases (Fig. 5 uses 3).")
  in
  let cold_ratio =
    Arg.(value & opt int 0 & info [ "cold-ratio" ] ~docv:"R"
           ~doc:"Never-accessed cold elements per hot element (Fig. 6 uses 10).")
  in
  let exp saturated elements phases cold_ratio scale =
    let scale = max 1 (scale * (100_000 / elements)) in
    E.Fig_synthetic.experiment ~phases ~cold_ratio ~saturated ~scale ()
  in
  workload_cmd "synthetic" ~doc:"The paper's synthetic micro-benchmark (§4.4)"
    Term.(const exp $ saturated $ elements $ phases $ cold_ratio)

let graph_cmd =
  let algo =
    Arg.(value
        & opt (enum [ ("cc", "cc"); ("mc", "mc") ]) "cc"
        & info [ "algo" ] ~docv:"cc|mc" ~doc:"Connected components or maximal cliques.")
  in
  let dataset =
    Arg.(value
        & opt (enum [ ("uk", "uk"); ("enwiki", "enwiki") ]) "uk"
        & info [ "dataset" ] ~docv:"uk|enwiki" ~doc:"Table 3 input (generator stand-in).")
  in
  workload_cmd "graph" ~doc:"JGraphT-style graph workloads (§4.5)"
    Term.(
      const (fun algo dataset -> List.assoc (algo ^ "-" ^ dataset) E.Named.experiments)
      $ algo $ dataset)

let h2_cmd =
  workload_cmd "h2"
    ~doc:"In-memory-database workload (DaCapo h2 stand-in, §4.6)"
    (Term.const (List.assoc "h2" E.Named.experiments))

let tradebeans_cmd =
  workload_cmd "tradebeans"
    ~doc:"Trading-session workload (DaCapo tradebeans stand-in, §4.6)"
    (Term.const (List.assoc "tradebeans" E.Named.experiments))

(* ------------------------------------------------------------------ *)
(* specjbb                                                             *)
(* ------------------------------------------------------------------ *)

let specjbb_cmd =
  let run config_id scale seed verify =
    let module S = Hcsgc_workloads.Specjbb_sim in
    let config = Config.of_id config_id in
    let params = E.Fig_specjbb.experiment_params ~scale in
    let vm = E.Fig_specjbb.make_vm ~params config in
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
    Term.(const run $ config_id $ scale $ seed $ verify_flag)

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
    Arg.(value & opt positive d.Serve.keys & info [ "keys" ] ~docv:"N"
           ~doc:"Distinct keys in the store (all prepopulated).")
  in
  let value_words =
    Arg.(value & opt positive d.Serve.value_words & info [ "value-words" ]
           ~docv:"W" ~doc:"Payload words per entry.")
  in
  let mutators =
    Arg.(value & opt positive d.Serve.mutators & info [ "mutators" ] ~docv:"N"
           ~doc:"Serving threads; keys are sharded across them by key mod N.")
  in
  let dist =
    Arg.(value
        & opt (spelled Keydist.spec_of_string)
            (spelled_default Keydist.spec_of_string "zipf:0.99")
        & info [ "dist" ] ~docv:"SPEC"
           ~doc:"Key distribution: uniform, hotset:HOT,BIAS, zipf[:THETA], \
                 seq[:STRIDE].")
  in
  let mix =
    let parse s =
      match String.split_on_char ',' s |> List.map int_of_string_opt with
      | [ Some g; Some u; Some sc ]
        when g >= 0 && u >= 0 && sc >= 0 && g + u + sc = 100 ->
          Ok (g, u, sc)
      | _ ->
          Error
            (Printf.sprintf
               "expected G,U,S percentages summing to 100, got %S" s)
    in
    let print ppf (g, u, sc) = Format.fprintf ppf "%d,%d,%d" g u sc in
    let m = d.Serve.mix in
    Arg.(value
        & opt (conv' (parse, print))
            (m.Serve.gets, m.Serve.updates, m.Serve.scans)
        & info [ "mix" ] ~docv:"G,U,S"
            ~doc:"Request mix as get,update,scan percentages (sum 100).")
  in
  let scan_len =
    Arg.(value & opt positive d.Serve.mix.Serve.scan_len & info [ "scan-len" ]
           ~docv:"L" ~doc:"Consecutive slots read per scan request.")
  in
  let arrivals =
    Arg.(value
        & opt (spelled Arrival.process_of_string)
            (spelled_default Arrival.process_of_string "constant")
        & info [ "arrivals" ] ~docv:"PROC"
           ~doc:"Arrival process: constant, diurnal[:TROUGH], \
                 bursty[:PERIOD,BURST,MULT].")
  in
  let load =
    Arg.(value & opt positive_float d.Serve.load & info [ "load" ] ~docv:"R"
           ~doc:"Offered load in requests per megacycle (open loop).")
  in
  let duration =
    Arg.(value & opt positive (d.Serve.duration / 1_000_000) & info [ "duration" ]
           ~docv:"MC" ~doc:"Arrival window in megacycles.")
  in
  let slo_us =
    Arg.(value & opt non_negative 5 & info [ "slo-us" ] ~docv:"US"
           ~doc:"Latency SLO in microseconds (at 3 GHz); 0 disables \
                 violation accounting.")
  in
  let heap_mb =
    Arg.(value & opt positive 8 & info [ "heap-mb" ] ~docv:"MB"
           ~doc:"Max heap in MiB.")
  in
  let run config_id keys value_words mutators (_, dist) (gets, updates, scans)
      scan_len (_, process) load duration slo_us heap_mb seed trace verify config =
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
    Format.fprintf fmt "serve under config %d (%s)%s@." config_id
      (Config.to_string config)
      (if verify then " [verified]" else "");
    let vm =
      E.Fig_serve.make_vm ~params:p ~heap:(heap_mb * 1024 * 1024) config
    in
    if verify then Vm.enable_verification vm;
    (* Telemetry is always on here: pause intervals feed the SLO
       attribution (and it charges no simulated cycles). *)
    let recorder = Vm.enable_telemetry ~sample_interval:trace.sample vm in
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
    Option.iter (fun path -> emit_artifacts ~trace_out:path recorder) trace.out
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
      $ trace $ verify_flag $ configured ())

(* ------------------------------------------------------------------ *)
(* profile: one (experiment, config) pair with full telemetry          *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let exp_arg =
    let doc =
      Printf.sprintf "Experiment to profile: %s."
        (String.concat ", " (List.map fst E.Named.experiments))
    in
    Arg.(value & opt (names E.Named.experiments) "f4" & info [ "exp" ] ~docv:"NAME" ~doc)
  in
  let run config_id scale exp_name trace seed verify cache =
    let exp = List.assoc exp_name E.Named.experiments scale in
    let trace_out = Option.value trace.out ~default:"trace.json" in
    Format.fprintf fmt "profiling %s under config %d (%s)%s@."
      exp.E.Runner.name config_id
      (Config.to_string (Config.of_id config_id))
      (if verify then " [verified]" else "");
    let job = { E.Runner.exp; config_id; run = seed } in
    let metrics, recorder =
      E.Runner.profile ~sample_interval:trace.sample ~verify ?cache job
    in
    Format.fprintf fmt "execution time: %.0f cycles, %d GC cycles@."
      metrics.E.Runner.wall metrics.E.Runner.gc_cycle_count;
    emit_artifacts ~trace_out recorder;
    report_store "profile" cache
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile one (experiment, configuration) pair: run it once with \
          telemetry attached and emit a Chrome trace-event JSON file, a CSV \
          counter time-series and a text summary (pause percentiles, MMU, \
          relocation attribution)")
    Term.(
      const run $ config_id $ scale $ exp_arg $ trace $ seed $ verify_flag
      $ cache)

(* ------------------------------------------------------------------ *)
(* fuzz: random-mutator smoke under full verification                  *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let module Fuzz = Hcsgc_fuzz.Fuzz in
  let seeds =
    Arg.(value & opt positive 200 & info [ "seeds" ] ~docv:"N"
           ~doc:"Number of consecutive seeds to fuzz (starting at --seed).")
  in
  let ops =
    Arg.(value & opt positive 1_500 & info [ "ops" ] ~docv:"N"
           ~doc:"Actions per seed.")
  in
  let slots =
    Arg.(value & opt positive 24 & info [ "slots" ] ~docv:"N"
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
    Arg.(value & opt positive 1 & info [ "mutators" ] ~docv:"N"
           ~doc:"Deal actions round-robin over $(docv) mutator threads.")
  in
  let run config_id seed seeds ops slots out no_oracle mutators config =
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
      $ mutators $ configured ())

(* ------------------------------------------------------------------ *)
(* figure: the paper's tables and figures, plus our ablations          *)
(* ------------------------------------------------------------------ *)

type artefact = {
  id : string;
  what : string;
  fast : int * int;  (** default (runs, scale) *)
  full : int * int;  (** (runs, scale) under --full: paper-closer sizes *)
  plan : runs:int -> scale:int -> E.Runner.plan;
}

(* The one registry of artefacts, in the order [figure all] renders them.
   The tables simulate nothing: they are plans with no tasks. *)
let artefacts =
  let a id what fast full plan = { id; what; fast; full; plan } in
  [
    a "t1" "Table 1: ZGC page size classes" (1, 1) (1, 1)
      (fun ~runs:_ ~scale:_ -> E.Runner.static E.Tables.t1);
    a "t2" "Table 2: the 19 benchmark configurations" (1, 1) (1, 1)
      (fun ~runs:_ ~scale:_ -> E.Runner.static E.Tables.t2);
    a "t3" "Table 3: LAW graph datasets (generator stand-ins)" (1, 4) (1, 4)
      (fun ~runs:_ ~scale -> E.Runner.static (E.Tables.t3 ~scale));
    a "f4" "Fig. 4: synthetic, single phase" (3, 2) (10, 1)
      E.Fig_synthetic.fig4;
    a "f5" "Fig. 5: synthetic, three phases" (3, 2) (10, 1)
      E.Fig_synthetic.fig5;
    a "f6" "Fig. 6: ample relocation, saturated core" (2, 4) (5, 2)
      E.Fig_synthetic.fig6;
    a "f7" "Fig. 7: CC on uk" (3, 16) (3, 8) E.Fig_graph.fig7;
    a "f8" "Fig. 8: CC on enwiki" (3, 16) (3, 8) E.Fig_graph.fig8;
    a "f9" "Fig. 9: MC on uk" (2, 4) (2, 2) E.Fig_graph.fig9;
    a "f10" "Fig. 10: MC on enwiki" (2, 4) (2, 2) E.Fig_graph.fig10;
    a "f11" "Fig. 11: DaCapo tradebeans (simulated)" (3, 2) (5, 1)
      E.Fig_dacapo.fig11;
    a "f12" "Fig. 12: DaCapo h2 (simulated)" (2, 2) (5, 1) E.Fig_dacapo.fig12;
    a "f13" "Fig. 13: SPECjbb2015 (simulated)" (2, 2) (2, 1)
      E.Fig_specjbb.fig13;
    a "abl-prefetch" "ablation: access-order layout needs prefetching" (3, 2)
      (3, 1) E.Ablations.prefetcher;
    a "abl-tlb" "ablation: page-locality (dTLB) effect" (3, 2) (3, 1)
      E.Ablations.tlb;
    a "abl-pagesize" "ablation: page-size-class granularity" (3, 2) (3, 1)
      E.Ablations.page_size;
    a "abl-autotune" "ablation: COLDCONFIDENCE feedback loop" (3, 2) (3, 1)
      E.Ablations.autotuner;
    a "fserve" "serving tier: tail latency and SLO attribution" (3, 2) (3, 2)
      E.Fig_serve.figure;
    a "ftier" "far-memory tier: capacity sweep" (3, 2) (3, 2) E.Fig_tier.figure;
  ]

let figure_cmd =
  let ids =
    let doc =
      "Artefacts to render, in order: any id listed under ARTEFACTS, or \
       $(b,all) for every one of them."
    in
    Arg.(non_empty
        & pos_all (names (("all", ()) :: List.map (fun a -> (a.id, ())) artefacts)) []
        & info [] ~docv:"ID" ~doc)
  in
  let full =
    let doc = "Use each artefact's paper-closer full sizes (much slower)." in
    Arg.(value & flag & info [ "full" ] ~doc)
  in
  let run ids full sweep scale =
    let selected =
      List.concat_map
        (fun id ->
          if id = "all" then artefacts
          else [ List.find (fun a -> a.id = id) artefacts ])
        ids
    in
    render_plans "figure" ~verify:false sweep
      (List.map
         (fun a ->
           let default_runs, default_scale = if full then a.full else a.fast in
           Format.eprintf "[figure] planning %s (%s)@." a.id a.what;
           a.plan
             ~runs:(Option.value sweep.runs ~default:default_runs)
             ~scale:(Option.value scale ~default:default_scale))
         selected)
  in
  let man =
    `S "ARTEFACTS"
    :: `P "Each id with its default runs and scale, then its $(b,--full) ones."
    :: List.map
         (fun a ->
           let (r, k), (r', k') = (a.fast, a.full) in
           `I (a.id, Printf.sprintf "%s (runs %d, scale %d; full: runs %d, scale %d)"
                       a.what r k r' k'))
         artefacts
  in
  Cmd.v
    (Cmd.info "figure" ~man
       ~doc:"Regenerate the paper's tables and figures, and our ablations")
    Term.(const run $ ids $ full $ sweep $ scale_opt)

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
            serve_cmd; profile_cmd; fuzz_cmd; figure_cmd ]))
