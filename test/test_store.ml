(* Tests for hcsgc.store and the incremental-sweep layer: fingerprint
   sensitivity, the metrics codec, store robustness (truncation,
   bit-flips, refresh), cost-aware scheduling, and the end-to-end
   guarantee that warm sweeps render byte-identical figures. *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Layout = Hcsgc_heap.Layout
module Runner = Hcsgc_experiments.Runner
module Fig_serve = Hcsgc_experiments.Fig_serve
module Fig_specjbb = Hcsgc_experiments.Fig_specjbb
module Fig_tier = Hcsgc_experiments.Fig_tier
module Slo = Hcsgc_serve.Slo
module Specjbb = Hcsgc_workloads.Specjbb_sim
module Report = Hcsgc_experiments.Report
module Synthetic = Hcsgc_workloads.Synthetic
module Fingerprint = Hcsgc_store.Fingerprint
module Result_store = Hcsgc_store.Result_store
module Scheduler = Hcsgc_store.Scheduler
module Pool = Hcsgc_exec.Pool

let check = Alcotest.check
let case = Alcotest.test_case

let with_temp_dir f =
  let dir = Filename.temp_dir "hcsgc_store_test" "" in
  Fun.protect (fun () -> f dir) ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      in
      try rm dir with Sys_error _ -> ())

let layout = Layout.scaled ~small_page:(16 * 1024)

let tiny_experiment =
  {
    Runner.name = "store-tiny";
    key = "test-store-tiny;el=600;apl=300;heap=4194304";
    make_vm =
      (fun config -> Vm.create ~layout ~config ~max_heap:(4 * 1024 * 1024) ());
    workload =
      (fun vm ~run ->
        ignore
          (Synthetic.run vm
             {
               Synthetic.default with
               Synthetic.elements = 600;
               accesses_per_loop = 300;
               loops = 3;
               garbage_words = 8;
               seed = run;
             }));
  }

let job ?(config_id = 0) ?(run = 0) () =
  { Runner.exp = tiny_experiment; config_id; run }

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let fingerprint_distinguishes_knob_vectors () =
  (* Every distinct Table 2 knob vector must have a distinct fingerprint.
     Ids 0 and 1 are the *same* knob vector (unmodified ZGC spelled two
     ways), so by design they share — 19 ids, 18 distinct addresses. *)
  let hexes =
    List.init 19 (fun config_id ->
        Fingerprint.to_hex (Runner.fingerprint ~verify:false (job ~config_id ())))
  in
  check Alcotest.int "19 configs" 19 (List.length hexes);
  check Alcotest.int "18 distinct (0 and 1 share)" 18
    (List.length (List.sort_uniq compare hexes));
  check Alcotest.string "config 0 = config 1"
    (List.nth hexes 0) (List.nth hexes 1)

let fingerprint_sensitive_to_each_input () =
  let base = Runner.fingerprint ~verify:false (job ()) in
  let differs name fp =
    check Alcotest.bool name false (Fingerprint.equal base fp)
  in
  differs "run seed" (Runner.fingerprint ~verify:false (job ~run:1 ()));
  differs "verify flag" (Runner.fingerprint ~verify:true (job ()));
  differs "config knobs" (Runner.fingerprint ~verify:false (job ~config_id:4 ()));
  let renamed =
    { (job ()) with exp = { tiny_experiment with key = tiny_experiment.key ^ ";x" } }
  in
  differs "experiment key" (Runner.fingerprint ~verify:false renamed);
  (* The display name is cosmetic: changing it must NOT move the address. *)
  let display =
    { (job ()) with exp = { tiny_experiment with name = "renamed" } }
  in
  check Alcotest.bool "display name is not hashed" true
    (Fingerprint.equal base (Runner.fingerprint ~verify:false display))

let fingerprint_sensitive_to_tier_knobs () =
  (* Each tier knob must move the content address on its own: a tiered
     sweep may never be served a tier-free (or differently-tiered) cached
     outcome.  Knobs are compared through the full knob-vector rendering,
     the same path fig_tier uses. *)
  let fp config =
    Fingerprint.make ~experiment:tiny_experiment.Runner.key
      ~config:(Runner.config_value_key config)
      ~run:0 ~verify:false
  in
  let tiered ?(capacity = 16) ?(lat_far = 800) ?(promote = true) () =
    Config.make ~hotness:true ~tier_capacity_pages:capacity ~lat_far
      ~tier_promote:promote ()
  in
  let base = fp (tiered ()) in
  let differs name other =
    check Alcotest.bool name false (Fingerprint.equal base (fp other))
  in
  differs "capacity" (tiered ~capacity:32 ());
  differs "tier off entirely" (Config.make ~hotness:true ());
  differs "far latency" (tiered ~lat_far:1200 ());
  differs "promotion" (tiered ~promote:false ());
  (* The tier knobs sit in the rendered vector even when tiering is off,
     so the untiered rendering is stable — pre-tier cache entries were
     already invalidated once by the code_version bump, and must not be
     invalidated again by incidental knob defaults. *)
  check Alcotest.string "untiered rendering is canonical"
    "h=false;cp=false;cc=0x0p+0;ra=false;lz=false;tc=0;lf=800;tp=true"
    (Runner.config_value_key (Config.of_id 0))

let fingerprint_no_concatenation_collisions () =
  (* Length-prefixed fields: moving a character across the field boundary
     must change the digest. *)
  let a = Fingerprint.make ~experiment:"ab" ~config:"c" ~run:0 ~verify:false in
  let b = Fingerprint.make ~experiment:"a" ~config:"bc" ~run:0 ~verify:false in
  check Alcotest.bool "ab|c <> a|bc" false (Fingerprint.equal a b)

(* ------------------------------------------------------------------ *)
(* Metrics codec                                                       *)
(* ------------------------------------------------------------------ *)

let arbitrary_metrics =
  QCheck.make
    QCheck.Gen.(
      let f = map (fun (m, e) -> ldexp m e) (pair (float_bound_inclusive 1.0) (int_range (-30) 30)) in
      let* wall = f and* loads = f and* l1 = f and* llc = f in
      let* ml1 = f and* mllc = f and* far = f and* ec = f in
      let* gc = int_bound 1000 and* rm = int_bound 10_000 and* rg = int_bound 10_000 in
      let* pd = int_bound 10_000 and* pp = int_bound 10_000 in
      let* samples = list_size (int_bound 20) (pair (int_bound 1_000_000) (int_bound 1_000_000)) in
      return
        {
          Runner.wall; loads; l1_misses = l1; llc_misses = llc;
          mut_l1_misses = ml1; mut_llc_misses = mllc; far_loads = far;
          gc_cycle_count = gc; ec_median = ec; reloc_mut = rm; reloc_gc = rg;
          pages_demoted = pd; pages_promoted = pp; heap_samples = samples;
        })

let prop_metrics_roundtrip =
  QCheck.Test.make ~name:"store: metrics codec round-trips bit-exactly"
    ~count:300 arbitrary_metrics (fun m ->
      Runner.metrics_of_string (Runner.metrics_to_string m) = Some m)

let codec_rejects_malformed () =
  let good = Runner.metrics_to_string (Runner.execute (job ())) in
  let reject name s =
    check Alcotest.bool name true (Runner.metrics_of_string s = None)
  in
  reject "empty" "";
  reject "wrong magic" ("nope\n" ^ good);
  reject "truncated" (String.sub good 0 (String.length good - 3));
  reject "trailing garbage" (good ^ "junk")

(* A stored payload under test: its name and bytes; whether the bytes
   decode to the encoded value and re-encode to themselves, so floats
   come back bit for bit; the decoder as a predicate; and the encodings
   of values no payload may hold, which must not decode. *)
let payload ?(malformed = []) name encode decode v =
  let bytes = encode v in
  ( name,
    bytes,
    (match decode bytes with
    | Some v' -> v' = v && encode v' = bytes
    | None -> false),
    (fun s -> Option.is_some (decode s)),
    List.map encode malformed )

let payload_gen =
  QCheck.Gen.(
    let f =
      let* neg = bool and* m = float_bound_inclusive 1.0 in
      let* e = int_range (-1074) 1023 in
      let* x =
        frequency
          [ (8, return (ldexp m e)); (1, return infinity); (1, return 0.0) ]
      in
      return (if neg then -.x else x)
    in
    let metrics = QCheck.gen arbitrary_metrics in
    let serve =
      let* r = array_repeat 10 int and* thr = f and* mean = f in
      let* histogram = array_repeat Slo.histogram_buckets (int_bound 1_000_000) in
      let* checksum = int and* metrics = metrics in
      (* A histogram of any other length is not a serve payload. *)
      let* n = int_bound (2 * Slo.histogram_buckets) in
      let n = if n >= Slo.histogram_buckets then n + 1 else n in
      let o =
        {
          Fig_serve.report =
            {
              Slo.requests = r.(0); gets = r.(1); updates = r.(2);
              scans = r.(3); duration = r.(4); throughput = thr; mean;
              p50 = r.(5); p95 = r.(6); p99 = r.(7); p999 = r.(8);
              max_latency = r.(9); slo = r.(0) / 3; violations = r.(1) / 3;
              pause_attributed = r.(2) / 3; service_attributed = r.(3) / 3;
              pause_cycles = r.(4) / 3;
            };
          histogram;
          checksum;
          metrics;
        }
      in
      return
        (payload "serve" Fig_serve.outcome_to_string Fig_serve.outcome_of_string
           ~malformed:[ { o with histogram = Array.make n 1 } ]
           o)
    in
    oneof
      [
        map (payload "metrics" Runner.metrics_to_string Runner.metrics_of_string)
          metrics;
        (let* wall = f and* loads = f and* llc_misses = f and* far_loads = f in
         let* far_peak = int and* demoted = int and* promoted = int in
         return
           (payload "tier" Fig_tier.outcome_to_string Fig_tier.outcome_of_string
              { Fig_tier.wall; loads; llc_misses; far_loads; far_peak; demoted;
                promoted }));
        serve;
        (let* max_jops = f and* critical_jops = f and* mean_latency = f in
         let* survival_rate = f and* metrics = metrics in
         return
           (payload "specjbb" Fig_specjbb.outcome_to_string
              Fig_specjbb.outcome_of_string
              {
                Fig_specjbb.result =
                  { Specjbb.max_jops; critical_jops; mean_latency;
                    survival_rate };
                metrics;
              }));
      ])

let prop_payloads_strict =
  QCheck.Test.make
    ~name:
      "store: every payload round-trips; prefixes and trailing bytes rejected"
    ~count:200
    (QCheck.make
       ~print:(fun ((name, bytes, _, _, _), c, line) ->
         Printf.sprintf "%s payload %S, appended %C / %S" name bytes c line)
       QCheck.Gen.(
         triple payload_gen char (string_size ~gen:printable (int_bound 8))))
    (fun ((_, bytes, round_trips, decodes, malformed), c, line) ->
      let prefix_rejected n = not (decodes (String.sub bytes 0 n)) in
      round_trips
      && List.for_all prefix_rejected (List.init (String.length bytes) Fun.id)
      && (not (decodes (bytes ^ String.make 1 c)))
      && (not (decodes (bytes ^ line ^ "\n")))
      && not (List.exists decodes malformed))

(* ------------------------------------------------------------------ *)
(* Store robustness                                                    *)
(* ------------------------------------------------------------------ *)

let store_roundtrip () =
  with_temp_dir (fun dir ->
      let store = Result_store.open_ ~dir in
      let fp = Runner.fingerprint ~verify:false (job ()) in
      check Alcotest.bool "absent" true (Result_store.find store fp = None);
      Result_store.add store fp ~cost_key:"k" ~cost:0.25 "payload";
      check (Alcotest.option Alcotest.string) "present" (Some "payload")
        (Result_store.find store fp);
      (* A fresh handle over the same directory sees the entry: the store
         is persistent, not per-process. *)
      let reopened = Result_store.open_ ~dir in
      check (Alcotest.option Alcotest.string) "persistent" (Some "payload")
        (Result_store.find reopened fp);
      let c = Result_store.counters store in
      check Alcotest.int "one hit" 1 c.Result_store.hits;
      check Alcotest.int "one miss" 1 c.Result_store.misses;
      check Alcotest.int "one store" 1 c.Result_store.stored)

let corrupt_entry name mutilate =
  case name `Quick (fun () ->
      with_temp_dir (fun dir ->
          let store = Result_store.open_ ~dir in
          let fp = Runner.fingerprint ~verify:false (job ()) in
          Result_store.add store fp ~cost:0.1 "the payload bytes";
          let path = Result_store.entry_path store fp in
          let contents = In_channel.with_open_bin path In_channel.input_all in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (mutilate contents));
          check Alcotest.bool "detected as miss" true
            (Result_store.find store fp = None);
          let c = Result_store.counters store in
          check Alcotest.int "counted corrupt" 1 c.Result_store.corrupt;
          check Alcotest.bool "entry dropped" false (Sys.file_exists path);
          (* The slot is reusable: a re-run overwrites cleanly. *)
          Result_store.add store fp ~cost:0.1 "the payload bytes";
          check (Alcotest.option Alcotest.string) "recovered"
            (Some "the payload bytes") (Result_store.find store fp)))

let truncated = corrupt_entry "truncated entry detected" (fun s ->
    String.sub s 0 (String.length s / 2))

let bitflipped = corrupt_entry "bit-flipped entry detected" (fun s ->
    let b = Bytes.of_string s in
    let i = Bytes.length b - 4 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b)

let execute_caches_and_refresh_recomputes () =
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let cold = Runner.execute ~cache (job ()) in
      let warm = Runner.execute ~cache (job ()) in
      check Alcotest.bool "warm = cold" true (cold = warm);
      let c = Result_store.counters cache.Runner.store in
      check Alcotest.int "computed once" 1 c.Result_store.stored;
      check Alcotest.int "served once" 1 c.Result_store.hits;
      (* --refresh: same store, but every job recomputes and overwrites. *)
      let refreshing = Runner.cache ~refresh:true ~dir () in
      let again = Runner.execute ~cache:refreshing (job ()) in
      check Alcotest.bool "refresh result unchanged" true (cold = again);
      let c = Result_store.counters refreshing.Runner.store in
      check Alcotest.int "refresh bypassed lookup" 0
        (c.Result_store.hits + c.Result_store.misses);
      check Alcotest.int "refresh re-stored" 1 c.Result_store.stored)

let cost_model_learns_and_persists () =
  with_temp_dir (fun dir ->
      let store = Result_store.open_ ~dir in
      check (Alcotest.option (Alcotest.float 0.0)) "unknown key" None
        (Result_store.estimate store ~cost_key:"k");
      let fp i = Fingerprint.make ~experiment:"e" ~config:"c" ~run:i ~verify:false in
      Result_store.add store (fp 0) ~cost_key:"k" ~cost:1.0 "a";
      Result_store.add store (fp 1) ~cost_key:"k" ~cost:3.0 "b";
      check (Alcotest.option (Alcotest.float 1e-9)) "mean of observations"
        (Some 2.0) (Result_store.estimate store ~cost_key:"k");
      let reopened = Result_store.open_ ~dir in
      check (Alcotest.option (Alcotest.float 1e-9)) "model persists"
        (Some 2.0) (Result_store.estimate reopened ~cost_key:"k"))

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let is_permutation order n =
  let seen = Array.make n false in
  Array.length order = n
  && Array.for_all
       (fun i ->
         i >= 0 && i < n && not seen.(i) && (seen.(i) <- true; true))
       order

let scheduler_orders_longest_first () =
  let costs = [| Some 2.0; None; Some 5.0; Some 2.0; None |] in
  let order = Scheduler.order ~estimate:(fun i -> costs.(i)) 5 in
  (* Unknowns first in index order, then descending cost, ties by index. *)
  check (Alcotest.array Alcotest.int) "LPT with unknowns first"
    [| 1; 4; 2; 0; 3 |] order;
  check Alcotest.bool "permutation" true (is_permutation order 5);
  check (Alcotest.array Alcotest.int) "no estimates = FIFO" [| 0; 1; 2; 3 |]
    (Scheduler.order ~estimate:(fun _ -> None) 4)

let pool_in_order_respects_result_positions () =
  let xs = Array.init 8 Fun.id in
  let order = [| 7; 6; 5; 4; 3; 2; 1; 0 |] in
  let ys = Pool.map_array_in_order ~jobs:3 ~order (fun x -> x * x) xs in
  check (Alcotest.array Alcotest.int) "results in original positions"
    (Array.map (fun x -> x * x) xs) ys;
  Alcotest.check_raises "rejects non-permutation"
    (Invalid_argument "Pool.map_array_in_order: order is not a permutation")
    (fun () ->
      ignore (Pool.map_array_in_order ~jobs:3 ~order:[| 0; 0 |] (fun x -> x) [| 1; 2 |]))

(* ------------------------------------------------------------------ *)
(* End to end: warm sweeps are byte-identical and cheaper              *)
(* ------------------------------------------------------------------ *)

let render results =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Report.figure fmt ~title:"store-tiny" ~expectation:"(test sweep)" results;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let sweep ~cache ~jobs () =
  Runner.run_configs ~config_ids:[ 0; 4; 16 ] ~runs:2 ~jobs ~cache
    tiny_experiment

let warm_sweep_byte_identical () =
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let cold = render (sweep ~cache ~jobs:1 ()) in
      let after_cold = Result_store.counters cache.Runner.store in
      check Alcotest.int "cold sweep computed everything" 6
        after_cold.Result_store.stored;
      let warm = render (sweep ~cache ~jobs:1 ()) in
      let after_warm = Result_store.counters cache.Runner.store in
      check Alcotest.string "warm render byte-identical" cold warm;
      check Alcotest.int "warm sweep computed nothing" 6
        after_warm.Result_store.stored;
      check Alcotest.int "warm sweep all hits" 6
        (after_warm.Result_store.hits - after_cold.Result_store.hits);
      (* Parallel warm sweep under cost-aware scheduling: still the same
         bytes, whatever order the pool ran things in. *)
      let parallel = render (sweep ~cache ~jobs:4 ()) in
      check Alcotest.string "-j4 scheduled warm sweep identical" cold parallel)

let cold_scheduled_sweep_matches_uncached () =
  (* Cost-aware scheduling on a *cold* store (and on a store with a
     learned model) must not change result bytes either. *)
  let plain = render (Runner.run_configs ~config_ids:[ 0; 16 ] ~runs:2 tiny_experiment) in
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let seed =
        render (Runner.run_configs ~config_ids:[ 0; 16 ] ~runs:2 ~cache
                  ~jobs:2 tiny_experiment)
      in
      check Alcotest.string "cold scheduled = uncached" plain seed;
      (* Drop the entries but keep costs.tsv: the next sweep is cold with
         a fully-informed cost model. *)
      Array.iter
        (fun e ->
          if Filename.check_suffix e ".v1" then
            Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      let informed =
        render (Runner.run_configs ~config_ids:[ 0; 16 ] ~runs:2 ~cache
                  ~jobs:2 tiny_experiment)
      in
      check Alcotest.string "informed-model cold sweep = uncached" plain informed)

let corrupt_entry_rerun_end_to_end () =
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let cold = Runner.execute ~cache (job ()) in
      let path =
        Result_store.entry_path cache.Runner.store
          (Runner.fingerprint ~verify:false (job ()))
      in
      (* Truncate the only entry; the next execute must detect it, re-run
         the simulation, and heal the store. *)
      let contents = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub contents 0 10));
      let healed = Runner.execute ~cache (job ()) in
      check Alcotest.bool "re-run equals original" true (cold = healed);
      check Alcotest.int "corruption counted" 1
        (Result_store.counters cache.Runner.store).Result_store.corrupt;
      check Alcotest.bool "store healed" true
        (Result_store.mem cache.Runner.store
           (Runner.fingerprint ~verify:false (job ()))))

(* ------------------------------------------------------------------ *)
(* Serving-tier experiment keys                                        *)
(* ------------------------------------------------------------------ *)

module Serve = Hcsgc_serve.Serve
module Arrival = Hcsgc_serve.Arrival
module Keydist = Hcsgc_workloads.Keydist

let serve_knobs_in_experiment_key () =
  (* Every result-affecting serving knob must move the content address;
     the run seed must not (repetitions are addressed via ~run). *)
  let p = Serve.default in
  let key ?heap ?(params = p) ?(slo = Fig_serve.default_slo) () =
    Fig_serve.experiment_key ?heap ~params ~shard_domains:0 ~slo ()
  in
  let base = key () in
  let moved name k =
    check Alcotest.bool ("distinct under " ^ name) false (String.equal base k)
  in
  moved "keys" (key ~params:{ p with Serve.keys = p.Serve.keys + 1 } ());
  moved "value words"
    (key ~params:{ p with Serve.value_words = p.Serve.value_words + 1 } ());
  moved "mutators" (key ~params:{ p with Serve.mutators = p.Serve.mutators + 1 } ());
  moved "key distribution"
    (key ~params:{ p with Serve.dist = Keydist.Uniform } ());
  moved "mix"
    (key
       ~params:
         { p with Serve.mix = { p.Serve.mix with Serve.gets = p.Serve.mix.Serve.gets + 1; updates = p.Serve.mix.Serve.updates - 1 } }
       ());
  moved "scan length"
    (key
       ~params:
         { p with Serve.mix = { p.Serve.mix with Serve.scan_len = p.Serve.mix.Serve.scan_len * 2 } }
       ());
  moved "arrival process"
    (key ~params:{ p with Serve.process = Arrival.Diurnal { trough = 0.25 } } ());
  moved "offered load" (key ~params:{ p with Serve.load = p.Serve.load *. 2.0 } ());
  moved "duration"
    (key ~params:{ p with Serve.duration = p.Serve.duration + 1 } ());
  moved "slo threshold" (key ~slo:(Fig_serve.default_slo + 1) ());
  moved "heap budget" (key ~heap:(4 * 1024 * 1024) ());
  check Alcotest.string "seed normalised out" base
    (key ~params:{ p with Serve.seed = 17 } ());
  (* Only the inline execution model exists: the retired label rejects
     anything else. *)
  Alcotest.check_raises "non-zero shard_domains rejected"
    (Invalid_argument
       "Fig_serve.experiment_key: only the inline model (0) exists")
    (fun () ->
      ignore
        (Fig_serve.experiment_key ~params:p ~shard_domains:1
           ~slo:Fig_serve.default_slo ()))

(* ------------------------------------------------------------------ *)
(* The sweep engine on toy tasks                                       *)
(* ------------------------------------------------------------------ *)

(* Task [i] squares [i]; its config is [i / 3] and its run [i mod 3], so
   each group of three is one configuration.  [computed] counts real
   computations across domains. *)
let toy_tasks ?(computed = Atomic.make 0) n =
  Array.init n (fun i ->
      let config = string_of_int (i / 3) in
      {
        Runner.group = "group " ^ config;
        experiment = "toy";
        config;
        run = i mod 3;
        compute =
          (fun () ->
            Atomic.incr computed;
            i * i);
      })

let toy_sweep ?cache ?progress ~jobs tasks =
  Runner.sweep ~jobs ?cache ?progress ~verify:false ~encode:string_of_int
    ~decode:int_of_string_opt tasks

let toy_address (t : int Runner.task) =
  Fingerprint.make ~experiment:t.Runner.experiment ~config:t.Runner.config
    ~run:t.Runner.run ~verify:false

let int_array = Alcotest.(array int)

let engine_results_in_task_order () =
  let expected = Array.init 12 (fun i -> i * i) in
  List.iter
    (fun jobs ->
      check int_array
        (Printf.sprintf "uncached -j%d" jobs)
        expected
        (toy_sweep ~jobs (toy_tasks 12));
      with_temp_dir (fun dir ->
          check int_array
            (Printf.sprintf "cold store -j%d" jobs)
            expected
            (toy_sweep ~cache:(Runner.cache ~dir ()) ~jobs (toy_tasks 12))))
    [ 1; 4 ]

let engine_serves_hits () =
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let computed = Atomic.make 0 in
      let cold = toy_sweep ~cache ~jobs:4 (toy_tasks ~computed 12) in
      check Alcotest.int "cold computes all" 12 (Atomic.get computed);
      Atomic.set computed 0;
      let warm = toy_sweep ~cache ~jobs:4 (toy_tasks ~computed 12) in
      check Alcotest.int "warm computes none" 0 (Atomic.get computed);
      check int_array "warm = cold" cold warm;
      check Alcotest.int "12 hits" 12
        (Result_store.counters cache.Runner.store).Result_store.hits)

let engine_recomputes_undecodable () =
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let tasks = toy_tasks 3 in
      let fp = toy_address tasks.(2) in
      (* Passes the store's checksum, fails the int decoder. *)
      Result_store.add cache.Runner.store fp ~cost:0.1 "not an int";
      let computed = Atomic.make 0 in
      let results = toy_sweep ~cache ~jobs:1 (toy_tasks ~computed 3) in
      check int_array "results" [| 0; 1; 4 |] results;
      check Alcotest.int "all three computed" 3 (Atomic.get computed);
      check Alcotest.int "counted corrupt" 1
        (Result_store.counters cache.Runner.store).Result_store.corrupt;
      check
        Alcotest.(option string)
        "overwritten" (Some "4")
        (Result_store.find cache.Runner.store fp))

let engine_computes_longest_first () =
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      (* Seed the cost model under other runs' addresses: config 1 is the
         longest, then 2, then 0. *)
      List.iter
        (fun (config, cost) ->
          Result_store.add cache.Runner.store
            (Fingerprint.make ~experiment:"toy" ~config ~run:99 ~verify:false)
            ~cost_key:("toy#" ^ config) ~cost "0")
        [ ("0", 1.0); ("1", 3.0); ("2", 2.0) ];
      let started = ref [] in
      let tasks =
        Array.map
          (fun (t : int Runner.task) ->
            {
              t with
              Runner.compute =
                (fun () ->
                  started := t.Runner.config :: !started;
                  t.Runner.compute ());
            })
          (toy_tasks 9)
      in
      let results = toy_sweep ~cache ~jobs:1 tasks in
      check int_array "results in task order" (Array.init 9 (fun i -> i * i))
        results;
      check
        Alcotest.(list string)
        "longest configuration first"
        [ "1"; "1"; "1"; "2"; "2"; "2"; "0"; "0"; "0" ]
        (List.rev !started))

let engine_announces_each_group_once () =
  List.iter
    (fun jobs ->
      with_temp_dir (fun dir ->
          let cache = Runner.cache ~dir () in
          let tasks = toy_tasks 9 in
          (* Group 0 computes everything; group 1's run 0 is a hit and its
             runs 1 and 2 miss; group 2 is fully cached. *)
          List.iter
            (fun i ->
              Result_store.add cache.Runner.store (toy_address tasks.(i))
                ~cost:0.1
                (string_of_int (i * i)))
            [ 3; 6; 7; 8 ];
          let lines = ref [] in
          let results =
            toy_sweep ~cache ~jobs
              ~progress:(fun l -> lines := l :: !lines)
              (toy_tasks 9)
          in
          check int_array "results" (Array.init 9 (fun i -> i * i)) results;
          check
            Alcotest.(list string)
            (Printf.sprintf "announcements at -j%d" jobs)
            [ "group 0"; "group 1" ]
            (List.sort compare !lines)))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Store addresses the end-to-end benchmark computes on its own        *)
(* ------------------------------------------------------------------ *)


(* bench/e2e's tier and serve jobs spell out their fingerprints by hand
   rather than through the figures' sweeps; so do these checks.  A change
   that re-keys either sweep turns every warm store cold, and fails here. *)
let tier_sweep_store_addresses () =
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      ignore (Fig_tier.sweep ~capacities:[ 8 ] ~runs:1 ~scale:8 ~cache ());
      let config =
        Fig_tier.tier_config ~capacity:8 ~lat_far:Fig_tier.default_lat_far
          ~promote:true
      in
      List.iter
        (fun (family, (exp : Runner.experiment)) ->
          check Alcotest.bool (family ^ " stored at its address") true
            (Result_store.mem cache.Runner.store
               (Fingerprint.make
                  ~experiment:("ftier;" ^ exp.Runner.key)
                  ~config:(Runner.config_value_key config)
                  ~run:0 ~verify:false)))
        (Fig_tier.families ~scale:8 ()))

let serve_sweep_store_address () =
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let scale = 16 in
      let params = Fig_serve.scaled_params ~scale
      and heap = Fig_serve.scaled_heap ~scale in
      ignore
        (Fig_serve.sweep ~config_ids:[ 18 ] ~runs:1 ~cache ~heap ~params ());
      let experiment =
        Fig_serve.experiment_key ~heap ~params ~shard_domains:0
          ~slo:Fig_serve.default_slo ()
      in
      check Alcotest.bool "stored at its address" true
        (Result_store.mem cache.Runner.store
           (Fingerprint.make ~experiment ~config:(Runner.config_key 18) ~run:0
              ~verify:false)))

let suite =
  [
    ( "store.fingerprint",
      [
        case "knob vectors distinct; ids 0,1 share" `Quick
          fingerprint_distinguishes_knob_vectors;
        case "sensitive to every input" `Quick fingerprint_sensitive_to_each_input;
        case "sensitive to tier knobs" `Quick fingerprint_sensitive_to_tier_knobs;
        case "length-prefixed fields" `Quick fingerprint_no_concatenation_collisions;
        case "serve knobs in experiment key" `Quick
          serve_knobs_in_experiment_key;
      ] );
    ( "store.codec",
      [
        QCheck_alcotest.to_alcotest prop_metrics_roundtrip;
        QCheck_alcotest.to_alcotest prop_payloads_strict;
        case "rejects malformed payloads" `Quick codec_rejects_malformed;
      ] );
    ( "store.robustness",
      [
        case "round trip and persistence" `Quick store_roundtrip;
        truncated;
        bitflipped;
        case "execute caches; refresh recomputes" `Quick
          execute_caches_and_refresh_recomputes;
        case "cost model learns and persists" `Quick cost_model_learns_and_persists;
        case "corrupt entry re-runs end to end" `Quick corrupt_entry_rerun_end_to_end;
      ] );
    ( "store.scheduling",
      [
        case "LPT order" `Quick scheduler_orders_longest_first;
        case "pool preserves result positions" `Quick
          pool_in_order_respects_result_positions;
      ] );
    ( "store.sweep",
      [
        case "warm sweep byte-identical" `Quick warm_sweep_byte_identical;
        case "cold scheduled sweep = uncached" `Quick
          cold_scheduled_sweep_matches_uncached;
      ] );
    ( "store.engine",
      [
        case "results in task order" `Quick engine_results_in_task_order;
        case "hits are not recomputed" `Quick engine_serves_hits;
        case "undecodable payload recomputed" `Quick
          engine_recomputes_undecodable;
        case "misses compute longest first" `Quick
          engine_computes_longest_first;
        case "each group announced once" `Quick
          engine_announces_each_group_once;
      ] );
    ( "store.addresses",
      [
        case "tier sweep" `Quick tier_sweep_store_addresses;
        case "serve sweep" `Quick serve_sweep_store_address;
      ] );
  ]
