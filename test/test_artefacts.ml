(* Tests for artefact plans and the one sweep that runs them: the four
   ablations and Fig. 13 render the same bytes cold, warm and in
   parallel; plans rendered together print what they print apart, and
   each distinct fingerprint among them is computed once; a verified run
   gets its own store entries; the Fig. 13 payload codec is lossless and
   strict; and the ablations' store addresses line up with Fig. 4's
   where a variant is a Fig. 4 job. *)

module Config = Hcsgc_core.Config
module Runner = Hcsgc_experiments.Runner
module Ablations = Hcsgc_experiments.Ablations
module Fig_specjbb = Hcsgc_experiments.Fig_specjbb
module Fig_synthetic = Hcsgc_experiments.Fig_synthetic
module Named = Hcsgc_experiments.Named
module Result_store = Hcsgc_store.Result_store
module Fingerprint = Hcsgc_store.Fingerprint
module Specjbb = Hcsgc_workloads.Specjbb_sim

let check = Alcotest.check
let case = Alcotest.test_case

let with_temp_dir = Test_store.with_temp_dir

(* ------------------------------------------------------------------ *)
(* Cold, warm and parallel renders                                     *)
(* ------------------------------------------------------------------ *)

let artefacts : (string * (runs:int -> scale:int -> Runner.plan)) list =
  [
    ("abl-prefetch", Ablations.prefetcher);
    ("abl-tlb", Ablations.tlb);
    ("abl-pagesize", Ablations.page_size);
    ("abl-autotune", Ablations.autotuner);
    ("f13", Fig_specjbb.fig13);
  ]

(* Two runs at scale 100, where every workload sits at its size floor. *)
let plan f = f ~runs:2 ~scale:100

let render ?cache ?(verify = false) ~jobs plans =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Runner.render ~jobs ?cache ~verify plans fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let same_bytes_cold_warm_parallel (name, f) () =
  with_temp_dir (fun dir ->
      let cold_cache = Runner.cache ~dir () in
      let cold = render ~jobs:1 ~cache:cold_cache [ plan f ] in
      let c = Result_store.counters cold_cache.Runner.store in
      check Alcotest.int (name ^ ": cold run hits nothing") 0
        c.Result_store.hits;
      check Alcotest.bool (name ^ ": cold run stores its jobs") true
        (c.Result_store.stored > 0);
      let warm_cache = Runner.cache ~dir () in
      let warm = render ~jobs:1 ~cache:warm_cache [ plan f ] in
      let w = Result_store.counters warm_cache.Runner.store in
      check Alcotest.int (name ^ ": warm run misses nothing") 0
        w.Result_store.misses;
      check Alcotest.int (name ^ ": warm run hits every job")
        c.Result_store.misses w.Result_store.hits;
      check Alcotest.string (name ^ ": warm = cold") cold warm;
      let parallel = render ~jobs:2 [ plan f ] in
      check Alcotest.string (name ^ ": -j2 = cold") cold parallel)

(* ------------------------------------------------------------------ *)
(* One sweep over several plans                                        *)
(* ------------------------------------------------------------------ *)

(* The variants that are Fig. 4 jobs, with their Table 2 row. *)
let f4_equal =
  [
    ("zgc, prefetch on", 0);
    ("cfg 16, prefetch on", 16);
    ("fixed cc=0.0 (+lazy)", 8);
    ("fixed cc=0.5 (+lazy)", 9);
    ("fixed cc=1.0 (+lazy)", 10);
    ("zgc, 64K pages", 0);
    ("cfg 16, 64K pages", 16);
  ]

let hex t = Fingerprint.to_hex (Runner.task_fingerprint ~verify:false t)

let distinct (Runner.Plan p) =
  List.length (List.sort_uniq compare (Array.to_list (Array.map hex p.tasks)))

let f4_stores_distinct_fingerprints () =
  let f4 = plan Fig_synthetic.fig4 in
  (* Configs 0 and 1 are one knob vector, so one fingerprint per run. *)
  check Alcotest.int "19 configs x 2 runs, 0 and 1 shared" 36 (distinct f4);
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      ignore (render ~jobs:2 ~cache [ f4 ]);
      let c = Result_store.counters cache.Runner.store in
      check
        Alcotest.(list int)
        "hits, misses, stored" [ 0; 36; 36 ]
        Result_store.[ c.hits; c.misses; c.stored ])

let together_equals_apart () =
  let f4 = plan Fig_synthetic.fig4 and abl = plan Ablations.prefetcher in
  let apart = render ~jobs:1 [ f4 ] ^ render ~jobs:1 [ abl ] in
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "f4 + abl-prefetch at -j%d" jobs)
        apart
        (render ~jobs [ f4; abl ]))
    [ 1; 2 ]

(* The plan with [seen] called on each task as it computes, with its
   fingerprint and the verify flag it computes under. *)
let watched seen (Runner.Plan p) =
  let lock = Mutex.create () in
  let compute t ~verify =
    Mutex.protect lock (fun () -> seen (hex t) verify);
    t.Runner.compute ~verify
  in
  Runner.Plan
    {
      p with
      tasks =
        Array.map (fun t -> { t with Runner.compute = compute t }) p.tasks;
    }

(* Each plan's tasks, counting their computations per fingerprint. *)
let counted computed =
  watched (fun fp _ ->
      Hashtbl.replace computed fp
        (1 + Option.value (Hashtbl.find_opt computed fp) ~default:0))

let shared_fingerprints_computed_once () =
  let plans =
    List.map plan
      [ Fig_synthetic.fig4; Ablations.prefetcher; Ablations.tlb;
        Ablations.page_size; Ablations.autotuner ]
  in
  let f4_runs config_id =
    let exp = Fig_synthetic.experiment ~scale:100 () in
    List.map
      (fun run ->
        Fingerprint.to_hex
          (Runner.fingerprint ~verify:false { Runner.exp; config_id; run }))
      [ 0; 1 ]
  in
  let once label cache =
    let computed = Hashtbl.create 64 in
    ignore (render ~jobs:2 ?cache (List.map (counted computed) plans));
    Hashtbl.iter
      (fun fp n -> check Alcotest.int (label ^ ": computed once " ^ fp) 1 n)
      computed;
    (* 36 Fig. 4 entries, plus the 14 variants less the 7 that are f4
       jobs, at two runs each. *)
    check Alcotest.int (label ^ ": distinct fingerprints computed") 50
      (Hashtbl.length computed);
    List.iter
      (fun (name, id) ->
        List.iter
          (fun fp ->
            check Alcotest.(option int) (label ^ ": " ^ name) (Some 1)
              (Hashtbl.find_opt computed fp))
          (f4_runs id))
      f4_equal
  in
  once "no cache" None;
  with_temp_dir (fun dir -> once "cold store" (Some (Runner.cache ~dir ())))

(* A verified run is its own entry: a store filled unverified serves it
   nothing, every task computes under [~verify:true], and it renders the
   same bytes. *)
let verified_plans_miss_unverified_entries () =
  let plans = [ plan Fig_specjbb.fig13; plan Ablations.tlb ] in
  with_temp_dir (fun dir ->
      let plain = render ~jobs:2 ~cache:(Runner.cache ~dir ()) plans in
      let cache = Runner.cache ~dir () in
      let unverified = ref 0 in
      let verified =
        render ~jobs:2 ~cache ~verify:true
          (List.map
             (watched (fun _ verify -> if not verify then incr unverified))
             plans)
      in
      let c = Result_store.counters cache.Runner.store in
      check Alcotest.int "no hits" 0 c.Result_store.hits;
      check Alcotest.int "every task computed verified" 0 !unverified;
      check Alcotest.int "every verified task stored"
        (List.fold_left (fun n p -> n + distinct p) 0 plans)
        c.Result_store.stored;
      check Alcotest.string "verified = plain" plain verified)

(* ------------------------------------------------------------------ *)
(* Fig. 13 payload codec                                               *)
(* ------------------------------------------------------------------ *)

let arbitrary_outcome =
  QCheck.make
    QCheck.Gen.(
      let f =
        map
          (fun (m, e) -> ldexp m e)
          (pair (float_bound_inclusive 1.0) (int_range (-30) 30))
      in
      let* max_jops = f and* critical_jops = f and* mean_latency = f in
      let* survival_rate = f and* wall = f and* loads = f and* ec = f in
      let* gc = int_bound 1000 and* rm = int_bound 10_000 in
      let* samples =
        list_size (int_bound 20)
          (pair (int_bound 1_000_000) (int_bound 1_000_000))
      in
      return
        {
          Fig_specjbb.result =
            { Specjbb.max_jops; critical_jops; mean_latency; survival_rate };
          metrics =
            {
              Runner.wall;
              loads;
              l1_misses = wall /. 3.0;
              llc_misses = loads /. 7.0;
              mut_l1_misses = ec;
              mut_llc_misses = ec /. 5.0;
              far_loads = 0.0;
              gc_cycle_count = gc;
              ec_median = ec;
              reloc_mut = rm;
              reloc_gc = rm / 3;
              pages_demoted = 0;
              pages_promoted = gc;
              heap_samples = samples;
            };
        })

(* Bit-exact: compare float bit patterns, not float equality. *)
let bits o =
  let r = o.Fig_specjbb.result in
  ( List.map Int64.bits_of_float
      [ r.Specjbb.max_jops; r.critical_jops; r.mean_latency; r.survival_rate ],
    Runner.metrics_to_string o.Fig_specjbb.metrics )

let prop_f13_roundtrip =
  QCheck.Test.make ~name:"f13 codec round-trips bit-exactly" ~count:300
    arbitrary_outcome (fun o ->
      match Fig_specjbb.outcome_of_string (Fig_specjbb.outcome_to_string o) with
      | Some o' -> bits o' = bits o && o' = o
      | None -> false)

let f13_codec_rejects_malformed () =
  let good =
    Fig_specjbb.outcome_to_string
      (QCheck.Gen.generate1 ~rand:(Random.State.make [| 7 |])
         (QCheck.gen arbitrary_outcome))
  in
  let reject name s =
    check Alcotest.bool name true (Fig_specjbb.outcome_of_string s = None)
  in
  check Alcotest.bool "good payload decodes" true
    (Fig_specjbb.outcome_of_string good <> None);
  let with_line i l =
    String.concat "\n"
      (List.mapi (fun j x -> if j = i then l else x)
         (String.split_on_char '\n' good))
  in
  reject "empty" "";
  reject "wrong magic" (with_line 0 "hcsgc-specjbb-metrics 0");
  reject "metrics magic" (with_line 0 "hcsgc-metrics 2");
  reject "other magic prepended" ("nope\n" ^ good);
  reject "trailing garbage" (good ^ "junk");
  reject "score not a float" (with_line 1 "1.0 2.0 x 4.0");
  reject "three scores" (with_line 1 "1.0 2.0 3.0");
  reject "five scores" (with_line 1 "1.0 2.0 3.0 4.0 5.0");
  reject "bad metrics" (with_line 2 "hcsgc-metrics 1");
  (* Every strict prefix is a truncation and must be refused. *)
  for n = 0 to String.length good - 1 do
    reject (Printf.sprintf "truncated to %d bytes" n) (String.sub good 0 n)
  done

(* ------------------------------------------------------------------ *)
(* Store addresses                                                     *)
(* ------------------------------------------------------------------ *)

let ablation_fingerprints () =
  List.iter
    (fun scale ->
      let f4 = Fig_synthetic.experiment ~scale () in
      let variants = List.concat_map snd (Ablations.variants ~scale) in
      check Alcotest.int "fourteen variants" 14 (List.length variants);
      List.iter
        (fun run ->
          let f4_fp config_id =
            Runner.fingerprint ~verify:false { Runner.exp = f4; config_id; run }
          in
          let f4_fps = List.map (fun (id, _) -> f4_fp id) Config.table2 in
          let fp (_, exp, config) =
            Runner.task_fingerprint ~verify:false
              (Runner.tasks ~runs:3 ~key:exp.Runner.key (Runner.measure exp)
                 [ ("", config) ]).(run)
          in
          List.iter
            (fun ((name, _, _) as v) ->
              let label = Printf.sprintf "%s (scale %d, run %d)" name scale run in
              match List.assoc_opt name f4_equal with
              | Some id ->
                  check Alcotest.bool (label ^ " = its f4 job") true
                    (Fingerprint.equal (fp v) (f4_fp id))
              | None ->
                  check Alcotest.bool (label ^ " is no f4 job") false
                    (List.exists (Fingerprint.equal (fp v)) f4_fps);
                  List.iter
                    (fun ((other, _, _) as w) ->
                      if other <> name then
                        check Alcotest.bool
                          (Printf.sprintf "%s differs from %s" label other)
                          false
                          (Fingerprint.equal (fp v) (fp w)))
                    variants)
            variants)
        [ 0; 2 ])
    [ 2; 8 ]

(* The figures' keys name their store entries; the ablation knobs must
   not have moved them. *)
let figure_keys_pinned () =
  let key e = e.Runner.key in
  check Alcotest.string "f4"
    "synthetic;el=50000;apl=20000;phases=1;loops=20;cold=0;sat=false;heap=12000000"
    (key (Fig_synthetic.fig4_experiment ~scale:2));
  check Alcotest.string "f5"
    "synthetic;el=50000;apl=20000;phases=3;loops=36;cold=0;sat=false;heap=12000000"
    (key (Fig_synthetic.fig5_experiment ~scale:2));
  check Alcotest.string "f6"
    "synthetic;el=25000;apl=10000;phases=1;loops=20;cold=250000;sat=true;heap=26400000"
    (key (Fig_synthetic.fig6_experiment ~scale:4))

(* [profile --exp f4|f5|f6] profiles the figure's own job: its
   experiment key is the key of every task the figure's plan runs. *)
let profile_exp_is_figure_job () =
  List.iter
    (fun (id, plan) ->
      List.iter
        (fun scale ->
          let key = (List.assoc id Named.experiments scale).Runner.key in
          match plan ~runs:2 ~scale with
          | Runner.Plan { tasks; _ } ->
              check Alcotest.int
                (Printf.sprintf "%s at scale %d: one task per config and run"
                   id scale)
                (2 * Config.id_count) (Array.length tasks);
              Array.iter
                (fun (t : _ Runner.task) ->
                  check Alcotest.string
                    (Printf.sprintf "%s at scale %d" id scale)
                    key t.Runner.experiment)
                tasks)
        [ 2; 4; 16 ])
    [
      ("f4", Fig_synthetic.fig4);
      ("f5", Fig_synthetic.fig5);
      ("f6", Fig_synthetic.fig6);
    ]

let suite =
  [
    ( "artefacts.render",
      List.map
        (fun ((name, _) as a) ->
          case (name ^ " cold = warm = -j2") `Quick
            (same_bytes_cold_warm_parallel a))
        artefacts );
    ( "artefacts.graph",
      [
        case "f4 stores its distinct fingerprints" `Quick
          f4_stores_distinct_fingerprints;
        case "f4 + abl-prefetch together = apart" `Quick together_equals_apart;
        case "shared fingerprints computed once" `Quick
          shared_fingerprints_computed_once;
        case "verified plans miss unverified entries" `Quick
          verified_plans_miss_unverified_entries;
      ] );
    ( "artefacts.codec",
      [
        QCheck_alcotest.to_alcotest prop_f13_roundtrip;
        case "f13 codec rejects malformed" `Quick f13_codec_rejects_malformed;
      ] );
    ( "artefacts.addresses",
      [
        case "ablation fingerprints" `Quick ablation_fingerprints;
        case "figure keys pinned" `Quick figure_keys_pinned;
        case "profile --exp is the figure's job" `Quick
          profile_exp_is_figure_job;
      ] );
  ]
