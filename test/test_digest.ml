(* Output-digest pins: the MD5 of one tiny job's serialized result per
   figure family, recorded next to the [Fingerprint.code_version] they
   were produced under.

   The result store trusts [code_version] to change whenever simulated
   output does.  This test holds it to that:
   - the current version's digests must match, so output that moves
     without a bump fails here;
   - they must differ from every earlier version's digests, so a bump
     with no output change is flagged too.

   After a deliberate, bumped output change, add a new [pins] entry with
   the digests the failure message prints; keep the old entries. *)

module Vm = Hcsgc_runtime.Vm
module Runner = Hcsgc_experiments.Runner
module Fig_synthetic = Hcsgc_experiments.Fig_synthetic
module Fig_graph = Hcsgc_experiments.Fig_graph
module Fig_dacapo = Hcsgc_experiments.Fig_dacapo
module Fig_serve = Hcsgc_experiments.Fig_serve
module Fig_tier = Hcsgc_experiments.Fig_tier
module Fig_specjbb = Hcsgc_experiments.Fig_specjbb
module Specjbb = Hcsgc_workloads.Specjbb_sim
module Config = Hcsgc_core.Config
module Dataset = Hcsgc_graph.Dataset
module Fingerprint = Hcsgc_store.Fingerprint

let pins =
  [
    ( "hcsgc-2026-08-pr8-v1",
      [
        ("synthetic", "2824a8a6e65c6b3f891e770034844f84");
        ("cc", "875972ce5660505d2471a44446a849fd");
        ("mc", "443f9bb591d9b73cce8c33c237d95316");
        ("h2", "0c2924f3d37e09773400a36436383b86");
        ("tradebeans", "f33d6507f119c919c64b0aba6770a464");
        ("serve", "b940b416715ee1c68107b4586c8a8d32");
        ("tier", "43e846ffcd636ab512605d8459b5b370");
        ("specjbb", "a1ebecb3793f2906be3261572e5814ac");
        ("ablation", "c44b1e6b5c15548ad9ef552a678db47b");
      ] );
  ]

(* Config 16 (hotness, cold pages, COLDCONFIDENCE 1.0, lazy relocation)
   exercises the most collector code of any Table 2 row. *)
let table2_job exp () =
  Runner.metrics_to_string
    (Runner.execute { Runner.exp; config_id = 16; run = 0 })

let serve_job () =
  let scale = 16 in
  match
    Runner.sweep ~verify:false ~encode:Fig_serve.outcome_to_string
      ~decode:Fig_serve.outcome_of_string
      (Fig_serve.tasks ~config_ids:[ 16 ] ~heap:(Fig_serve.scaled_heap ~scale)
         ~runs:1 ~params:(Fig_serve.scaled_params ~scale) ())
  with
  | [| o |] -> Fig_serve.outcome_to_string o
  | _ -> Alcotest.fail "serve sweep shape"

let tier_job () =
  let exp = List.assoc "synthetic" (Fig_tier.families ~scale:16 ()) in
  let config =
    Fig_tier.tier_config ~capacity:8 ~lat_far:Fig_tier.default_lat_far
      ~promote:true
  in
  let vm = exp.Runner.make_vm config in
  exp.Runner.workload vm ~run:0;
  Vm.finish vm;
  Runner.metrics_to_string (Runner.collect vm)

let specjbb_job () =
  let params = Fig_specjbb.experiment_params ~scale:16 in
  let vm = Fig_specjbb.make_vm ~params (Config.of_id 16) in
  let result = Specjbb.run vm params in
  Vm.finish vm;
  Fig_specjbb.outcome_to_string { result; metrics = Runner.collect vm }

let families =
  [
    ("synthetic", table2_job (Fig_synthetic.experiment ~scale:64 ()));
    ("cc", table2_job (Fig_graph.cc_experiment ~dataset:Dataset.uk_cc ~scale:256 ()));
    ( "mc",
      table2_job
        (Fig_graph.mc_experiment ~max_expansions:2_000 ~dataset:Dataset.uk_mc
           ~scale:16 ()) );
    ("h2", table2_job (Fig_dacapo.h2_experiment ~scale:64 ()));
    ("tradebeans", table2_job (Fig_dacapo.tradebeans_experiment ~scale:2 ()));
    ("serve", serve_job);
    ("tier", tier_job);
    ("specjbb", specjbb_job);
    (* Every ablation knob turned at once: no prefetcher, the dTLB model,
       16 KiB pages and the COLDCONFIDENCE autotuner. *)
    ( "ablation",
      table2_job
        (Fig_synthetic.experiment ~prefetch:false ~tlb:true
           ~small_page:(16 * 1024) ~autotune:true ~scale:64 ()) );
  ]

let digests () =
  List.map (fun (name, job) -> (name, Digest.to_hex (Digest.string (job ())))) families

let show ds =
  String.concat "; " (List.map (fun (n, d) -> Printf.sprintf "(%S, %S)" n d) ds)

let pinned_to_code_version () =
  let ds = digests () in
  match List.assoc_opt Fingerprint.code_version pins with
  | None ->
      Alcotest.failf "no digest pins for code_version %S; record: %s"
        Fingerprint.code_version (show ds)
  | Some pinned ->
      if pinned <> ds then
        Alcotest.failf
          "simulated output changed without a code_version bump (%S).@.\
           pinned: %s@.actual: %s"
          Fingerprint.code_version (show pinned) (show ds);
      List.iter
        (fun (version, older) ->
          if version <> Fingerprint.code_version && older = ds then
            Alcotest.failf
              "code_version %S was bumped from %S with no output change"
              Fingerprint.code_version version)
        pins

let suite =
  [
    ( "store.digest",
      [ Alcotest.test_case "output pinned to code_version" `Quick
          pinned_to_code_version ] );
  ]
