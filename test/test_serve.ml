(* Tests for hcsgc.serve: the arrival process, the serving loop's
   determinism contract (telemetry, verification, fig_serve
   job parallelism, warm-vs-cold store replay), and the SLO analyzer's
   busy-period pause attribution. *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Layout = Hcsgc_heap.Layout
module Rng = Hcsgc_util.Rng
module Arrival = Hcsgc_serve.Arrival
module Serve = Hcsgc_serve.Serve
module Slo = Hcsgc_serve.Slo
module Analyzer = Hcsgc_telemetry.Analyzer
module Runner = Hcsgc_experiments.Runner
module Fig_serve = Hcsgc_experiments.Fig_serve

let layout = Layout.scaled ~small_page:(16 * 1024)

(* Small but GC-active: the update churn through a tight heap paces
   several cycles, so the determinism checks cover pause stalls too. *)
let small_params =
  {
    Serve.default with
    Serve.keys = 3_000;
    value_words = 8;
    duration = 4_000_000;
    load = 300.0;
  }

let make_vm ?(config = 18) () =
  Vm.create ~layout
    ~machine_config:Hcsgc_experiments.Scaled_machine.config
    ~config:(Config.of_id config)
    ~max_heap:(2 * 1024 * 1024)
    ~mutators:small_params.Serve.mutators ~trigger:0.10 ()

let run_small ?config ?(telemetry = true) ?(verify = false) () =
  let vm = make_vm ?config () in
  if verify then Vm.enable_verification vm;
  let recorder = if telemetry then Some (Vm.enable_telemetry vm) else None in
  let r = Serve.run vm small_params in
  Vm.finish vm;
  let pauses =
    match recorder with
    | Some rec_ -> Analyzer.pause_intervals rec_
    | None -> []
  in
  (r, pauses, Runner.collect vm)

(* A run as the serve figure stores it. *)
let signature (r, pauses, metrics) =
  Fig_serve.outcome_to_string
    {
      Fig_serve.report =
        Slo.analyze ~slo:(5 * Slo.cycles_per_us)
          ~duration:small_params.Serve.duration ~pauses r;
      histogram = Slo.histogram r.Serve.requests;
      checksum = r.Serve.checksum;
      metrics;
    }

(* ------------------------------------------------------------------ *)
(* Arrival process                                                     *)
(* ------------------------------------------------------------------ *)

let drain t =
  let rec go acc = match Arrival.next t with
    | Some a -> go (a :: acc)
    | None -> List.rev acc
  in
  go []

let arrival_constant_rate () =
  let t = Arrival.create Arrival.Constant ~rate:100.0 ~duration:10_000_000 ~seed:1 in
  let arrivals = drain t in
  let n = List.length arrivals in
  (* 100 req/Mc over 10 Mc: expect ~1000 arrivals, Poisson sd ~32. *)
  Alcotest.(check bool) "count near rate * duration" true (n > 850 && n < 1150);
  let sorted = List.sort compare arrivals in
  Alcotest.(check (list int)) "non-decreasing" sorted arrivals;
  List.iter
    (fun a -> Alcotest.(check bool) "within window" true (a >= 0 && a < 10_000_000))
    arrivals

let arrival_deterministic () =
  let gen () =
    drain (Arrival.create (Arrival.Diurnal { trough = 0.25 }) ~rate:50.0
             ~duration:5_000_000 ~seed:7)
  in
  Alcotest.(check (list int)) "same seed, same timeline" (gen ()) (gen ())

let arrival_diurnal_shape () =
  let t = Arrival.create (Arrival.Diurnal { trough = 0.1 }) ~rate:200.0
      ~duration:9_000_000 ~seed:3 in
  let arrivals = drain t in
  let in_range lo hi = List.length (List.filter (fun a -> a >= lo && a < hi) arrivals) in
  let first = in_range 0 3_000_000 in
  let middle = in_range 3_000_000 6_000_000 in
  let last = in_range 6_000_000 9_000_000 in
  (* Sine ramp (trough 0.1): mean rate over the middle third is ~2x the
     mean over either edge third. Require a comfortable 1.5x margin. *)
  Alcotest.(check bool) "middle busier than first third" true
    (middle * 2 > first * 3);
  Alcotest.(check bool) "middle busier than last third" true
    (middle * 2 > last * 3)

let arrival_bursty_shape () =
  let period = 1_000_000 and burst = 100_000 in
  let t = Arrival.create (Arrival.Bursty { period; burst; mult = 10.0 })
      ~rate:50.0 ~duration:10_000_000 ~seed:5 in
  let arrivals = drain t in
  let in_burst = List.length (List.filter (fun a -> a mod period < burst) arrivals) in
  let outside = List.length arrivals - in_burst in
  (* Burst windows are 10% of time at 10x rate: ~half of all arrivals. *)
  Alcotest.(check bool) "bursts concentrate arrivals" true
    (in_burst > outside / 2)

let arrival_parser () =
  let ok s = match Arrival.process_of_string s with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  Alcotest.(check bool) "constant" true (ok "constant" = Arrival.Constant);
  Alcotest.(check bool) "diurnal with trough" true
    (ok "diurnal:0.5" = Arrival.Diurnal { trough = 0.5 });
  Alcotest.(check bool) "bursty full" true
    (ok "bursty:1000,100,8.0" = Arrival.Bursty { period = 1000; burst = 100; mult = 8.0 });
  List.iter
    (fun s ->
      match Arrival.process_of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "poisson"; "diurnal:0"; "diurnal:1.5"; "bursty:0,0,1";
      "bursty:100,200,1"; "bursty:100,10,0" ]

let arrival_validation () =
  List.iter
    (fun f -> Alcotest.check_raises "invalid" (Invalid_argument (f ()))
        (fun () -> ()))
    [];
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Arrival.create Arrival.Constant ~rate:0.0 ~duration:10 ~seed:0);
  expect_invalid (fun () ->
      Arrival.create Arrival.Constant ~rate:1.0 ~duration:0 ~seed:0);
  expect_invalid (fun () ->
      Arrival.create (Arrival.Diurnal { trough = 0.0 }) ~rate:1.0 ~duration:10
        ~seed:0);
  expect_invalid (fun () ->
      Arrival.create (Arrival.Bursty { period = 10; burst = 20; mult = 2.0 })
        ~rate:1.0 ~duration:10 ~seed:0)

(* ------------------------------------------------------------------ *)
(* Serving-loop determinism                                            *)
(* ------------------------------------------------------------------ *)

let serve_telemetry_free () =
  (* Recording is pure observation: the request streams (latencies, wall
     windows, stalls) must be identical with and without a recorder. *)
  let r1, _, m1 = run_small ~telemetry:true () in
  let r2, _, m2 = run_small ~telemetry:false () in
  Alcotest.(check bool) "request arrays equal" true
    (r1.Serve.requests = r2.Serve.requests);
  Alcotest.(check int) "checksum" r1.Serve.checksum r2.Serve.checksum;
  Alcotest.(check string) "metrics"
    (Runner.metrics_to_string m1)
    (Runner.metrics_to_string m2)

let serve_verified_identical () =
  let s_plain = signature (run_small ()) in
  let s_verified = signature (run_small ~verify:true ()) in
  Alcotest.(check string) "verified = unverified" s_plain s_verified

let serve_repeatable () =
  Alcotest.(check string) "two runs byte-identical"
    (signature (run_small ()))
    (signature (run_small ()))

let serve_exercises_gc () =
  let _, pauses, _ = run_small () in
  Alcotest.(check bool) "GC paused at least once" true (pauses <> [])

let serve_counts_consistent () =
  let r, _, _ = run_small () in
  Alcotest.(check int) "kinds partition requests"
    (Array.length r.Serve.requests)
    (r.Serve.gets + r.Serve.updates + r.Serve.scans);
  Array.iter
    (fun (q : Serve.request) ->
      Alcotest.(check bool) "latency = wait + service + stall" true
        (q.Serve.latency = q.Serve.wait + q.Serve.service + q.Serve.stall);
      Alcotest.(check bool) "window well-formed" true (q.Serve.w1 >= q.Serve.w0))
    r.Serve.requests

let serve_validates_params () =
  let expect_invalid p =
    let vm = make_vm () in
    match Serve.run vm p with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid { small_params with Serve.keys = 0 };
  expect_invalid
    { small_params with
      Serve.mix = { Serve.gets = 50; updates = 40; scans = 5; scan_len = 8 } }

(* ------------------------------------------------------------------ *)
(* SLO analyzer fixtures                                               *)
(* ------------------------------------------------------------------ *)

let req ?(mutator = 0) ?(kind = Serve.Get) ~arrival ~wait ~service ?(stall = 0)
    ~w0 () =
  {
    Serve.arrival;
    mutator;
    kind;
    wait;
    service;
    stall;
    latency = wait + service + stall;
    w0;
    w1 = w0 + service + stall;
  }

let result_of requests =
  {
    Serve.requests;
    gets = Array.length requests;
    updates = 0;
    scans = 0;
    checksum = 0;
  }

let slo_attribution_direct () =
  (* One request absorbs a pause inside its window and violates; another
     violates on service time alone. *)
  let requests =
    [|
      req ~arrival:0 ~wait:0 ~service:500 ~stall:400 ~w0:100 ();
      req ~arrival:5_000 ~wait:0 ~service:900 ~w0:10_000 ();
      req ~arrival:9_000 ~wait:0 ~service:10 ~w0:20_000 ();
    |]
  in
  let r =
    Slo.analyze ~slo:800 ~duration:100_000
      ~pauses:[ (200, 600) ]
      (result_of requests)
  in
  Alcotest.(check int) "violations" 2 r.Slo.violations;
  Alcotest.(check int) "pause-attributed" 1 r.Slo.pause_attributed;
  Alcotest.(check int) "service-attributed" 1 r.Slo.service_attributed;
  Alcotest.(check int) "pause cycles" 400 r.Slo.pause_cycles

let slo_attribution_carry () =
  (* The pause lands in request A's window; B and C are queued behind it
     (wait > 0) in the same busy period, so their violations are
     pause-attributed even though their own windows overlap nothing.  D
     starts a fresh busy period (wait = 0): its violation is service. *)
  let requests =
    [|
      req ~arrival:0 ~wait:0 ~service:100 ~stall:900 ~w0:0 ();
      req ~arrival:10 ~wait:990 ~service:100 ~w0:2_000 ();
      req ~arrival:20 ~wait:1_080 ~service:50 ~w0:3_000 ();
      req ~arrival:50_000 ~wait:0 ~service:2_000 ~w0:60_000 ();
    |]
  in
  let r =
    Slo.analyze ~slo:700 ~duration:100_000
      ~pauses:[ (100, 1_000) ]
      (result_of requests)
  in
  Alcotest.(check int) "violations" 4 r.Slo.violations;
  Alcotest.(check int) "pause-attributed" 3 r.Slo.pause_attributed;
  Alcotest.(check int) "service-attributed" 1 r.Slo.service_attributed

let slo_carry_resets_per_mutator () =
  (* Carry is per shard: a pause on mutator 0 must not attribute a
     violation on mutator 1's independent queue. *)
  let requests =
    [|
      req ~mutator:0 ~arrival:0 ~wait:0 ~service:100 ~stall:500 ~w0:0 ();
      req ~mutator:1 ~arrival:10 ~wait:600 ~service:300 ~w0:5_000 ();
    |]
  in
  let r =
    Slo.analyze ~slo:400 ~duration:10_000
      ~pauses:[ (50, 550) ]
      (result_of requests)
  in
  Alcotest.(check int) "violations" 2 r.Slo.violations;
  Alcotest.(check int) "pause-attributed" 1 r.Slo.pause_attributed;
  Alcotest.(check int) "service-attributed" 1 r.Slo.service_attributed

let slo_disabled () =
  let requests = [| req ~arrival:0 ~wait:0 ~service:1_000_000 ~w0:0 () |] in
  let r = Slo.analyze ~slo:0 ~duration:10_000 ~pauses:[] (result_of requests) in
  Alcotest.(check int) "no violations when slo = 0" 0 r.Slo.violations;
  Alcotest.(check int) "p50 still reported" 1_000_000 r.Slo.p50

let slo_codec_roundtrip () =
  let requests =
    [|
      req ~arrival:0 ~wait:3 ~service:500 ~stall:7 ~w0:100 ();
      req ~arrival:50 ~wait:0 ~service:900 ~w0:1_000 ();
    |]
  in
  let r =
    Slo.analyze ~slo:800 ~duration:123_456 ~pauses:[ (1, 5) ]
      (result_of requests)
  in
  let o =
    {
      Fig_serve.report = r;
      histogram = Slo.histogram requests;
      checksum = 42;
      metrics = Runner.collect (make_vm ());
    }
  in
  let payload = Fig_serve.outcome_to_string o in
  (match Fig_serve.outcome_of_string payload with
  | Some o' ->
      Alcotest.(check bool) "round-trip" true (o' = o);
      Alcotest.(check string) "re-encodes" payload
        (Fig_serve.outcome_to_string o')
  | None -> Alcotest.fail "codec failed to round-trip");
  let with_line i l =
    String.concat "\n"
      (List.mapi (fun j x -> if j = i then l else x)
         (String.split_on_char '\n' payload))
  in
  Alcotest.(check bool) "garbage report rejected" true
    (Fig_serve.outcome_of_string (with_line 1 "not a report") = None)

let slo_histogram_buckets () =
  let requests =
    [|
      req ~arrival:0 ~wait:0 ~service:0 ~w0:0 ();
      req ~arrival:0 ~wait:0 ~service:1 ~w0:0 ();
      req ~arrival:0 ~wait:0 ~service:2 ~w0:0 ();
      req ~arrival:0 ~wait:0 ~service:3 ~w0:0 ();
      req ~arrival:0 ~wait:0 ~service:1_024 ~w0:0 ();
      req ~arrival:0 ~wait:0 ~service:2_047 ~w0:0 ();
    |]
  in
  let h = Slo.histogram requests in
  Alcotest.(check int) "fixed length" Slo.histogram_buckets (Array.length h);
  Alcotest.(check int) "bucket 0 counts 0 and 1" 2 h.(0);
  Alcotest.(check int) "bucket 1 counts 2..3" 2 h.(1);
  Alcotest.(check int) "bucket 10 counts 1024..2047" 2 h.(10);
  Alcotest.(check int) "total preserved" 6 (Array.fold_left ( + ) 0 h)

(* ------------------------------------------------------------------ *)
(* fig_serve: job parallelism and the result store                     *)
(* ------------------------------------------------------------------ *)

let fig_params =
  { small_params with Serve.keys = 2_000; duration = 2_000_000 }

let outcomes_signature results =
  String.concat "\n---\n"
    (List.concat_map
       (fun (id, os) ->
         Array.to_list
           (Array.map
              (fun o -> string_of_int id ^ ":" ^ Fig_serve.outcome_to_string o)
              os))
       results)

let fig_serve_jobs_determinism () =
  let sweep jobs =
    Fig_serve.sweep ~config_ids:[ 0; 18 ] ~runs:2 ~jobs ~params:fig_params ()
  in
  Alcotest.(check string) "-j4 = -j1"
    (outcomes_signature (sweep 1))
    (outcomes_signature (sweep 4))

let with_temp_dir f =
  let dir = Filename.temp_file "hcsgc_serve_cache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      in
      if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let fig_serve_warm_replay () =
  with_temp_dir (fun dir ->
      let sweep () =
        let cache = Runner.cache ~dir () in
        let r =
          Fig_serve.sweep ~config_ids:[ 0; 18 ] ~runs:1 ~cache
            ~params:fig_params ()
        in
        (outcomes_signature r, Hcsgc_store.Result_store.counters cache.Runner.store)
      in
      let cold, cold_counters = sweep () in
      let warm, warm_counters = sweep () in
      Alcotest.(check string) "warm replay byte-identical" cold warm;
      Alcotest.(check int) "cold stored every job" 2
        cold_counters.Hcsgc_store.Result_store.stored;
      Alcotest.(check int) "warm all hits" 2
        warm_counters.Hcsgc_store.Result_store.hits;
      Alcotest.(check int) "warm no misses" 0
        warm_counters.Hcsgc_store.Result_store.misses)

let fig_serve_verify_distinct_entries () =
  (* Verified results are byte-identical, but cached under distinct
     fingerprints — like Runner jobs. *)
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let run verify =
        outcomes_signature
          (Fig_serve.sweep ~config_ids:[ 18 ] ~runs:1 ~verify ~cache
             ~params:fig_params ())
      in
      let plain = run false in
      let verified = run true in
      Alcotest.(check string) "verified = plain output" plain verified;
      Alcotest.(check int) "two distinct store entries" 2
        (Hcsgc_store.Result_store.counters cache.Runner.store)
          .Hcsgc_store.Result_store.stored)

let fig_serve_outcome_codec () =
  let results =
    Fig_serve.sweep ~config_ids:[ 0 ] ~runs:1 ~params:fig_params ()
  in
  let o = (snd (List.hd results)).(0) in
  match Fig_serve.outcome_of_string (Fig_serve.outcome_to_string o) with
  | None -> Alcotest.fail "codec failed to round-trip"
  | Some o' ->
      Alcotest.(check string) "payload round-trips"
        (Fig_serve.outcome_to_string o)
        (Fig_serve.outcome_to_string o');
      Alcotest.(check bool) "garbage rejected" true
        (Fig_serve.outcome_of_string "hcsgc-serve-metrics 1\ngarbage" = None)

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "arrival: constant rate" `Quick arrival_constant_rate;
        Alcotest.test_case "arrival: deterministic" `Quick arrival_deterministic;
        Alcotest.test_case "arrival: diurnal shape" `Quick arrival_diurnal_shape;
        Alcotest.test_case "arrival: bursty shape" `Quick arrival_bursty_shape;
        Alcotest.test_case "arrival: parser" `Quick arrival_parser;
        Alcotest.test_case "arrival: validation" `Quick arrival_validation;
        Alcotest.test_case "telemetry charges nothing" `Quick
          serve_telemetry_free;
        Alcotest.test_case "verified run identical" `Quick
          serve_verified_identical;
        Alcotest.test_case "repeatable" `Quick serve_repeatable;
        Alcotest.test_case "exercises GC" `Quick serve_exercises_gc;
        Alcotest.test_case "request invariants" `Quick serve_counts_consistent;
        Alcotest.test_case "parameter validation" `Quick serve_validates_params;
        Alcotest.test_case "slo: direct attribution" `Quick
          slo_attribution_direct;
        Alcotest.test_case "slo: busy-period carry" `Quick slo_attribution_carry;
        Alcotest.test_case "slo: carry is per mutator" `Quick
          slo_carry_resets_per_mutator;
        Alcotest.test_case "slo: disabled threshold" `Quick slo_disabled;
        Alcotest.test_case "slo: report codec" `Quick slo_codec_roundtrip;
        Alcotest.test_case "slo: histogram buckets" `Quick slo_histogram_buckets;
        Alcotest.test_case "fig_serve: -j determinism" `Quick
          fig_serve_jobs_determinism;
        Alcotest.test_case "fig_serve: warm replay" `Quick fig_serve_warm_replay;
        Alcotest.test_case "fig_serve: verify keys distinct" `Quick
          fig_serve_verify_distinct_entries;
        Alcotest.test_case "fig_serve: outcome codec" `Quick
          fig_serve_outcome_codec;
      ] );
  ]
