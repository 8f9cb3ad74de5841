(* bench/micro's kernel library: every kernel runs, and --only selects by
   name or fails with the valid names. *)

module Kernels = Bench_micro.Kernels
module Collector = Hcsgc_core.Collector
module Gc_stats = Hcsgc_core.Gc_stats

let check = Alcotest.check
let case = Alcotest.test_case

(* One tiny round of each kernel (a hundredth of its per-round work): a
   broken kernel fails here, not only in the release bench job. *)
let every_kernel_runs () =
  check Alcotest.int "kernels" 16 (List.length Kernels.kernels);
  List.iter
    (fun (k : Kernels.t) ->
      let s = k.start ~div:100 in
      s.mutate 1;
      s.step ();
      match (k.unit_, s.col) with
      | Kernels.Cycle, Some col ->
          check Alcotest.bool
            (k.name ^ " completed simulated GC cycles")
            true
            (Gc_stats.cycles (Collector.stats col) > 0
            && not (Collector.in_cycle col))
      | Kernels.Cycle, None -> Alcotest.failf "%s reports no collector" k.name
      | Kernels.Op, _ -> ())
    Kernels.kernels

let names ks = List.map (fun (k : Kernels.t) -> k.name) ks

let select_by_name () =
  let selected spec =
    match Kernels.select spec with
    | Ok ks -> names ks
    | Error msg -> Alcotest.failf "%S rejected: %s" spec msg
  in
  check
    Alcotest.(list string)
    "table order, spaces trimmed"
    [ "barrier-load-ref"; "churn" ]
    (selected "churn, barrier-load-ref");
  check Alcotest.(list string) "one name" [ "multi-mutator" ]
    (selected "multi-mutator")

let select_rejects_unknown () =
  let valid = String.concat ", " Kernels.names in
  let rejected spec =
    match Kernels.select spec with
    | Ok ks ->
        Alcotest.failf "%S accepted as [%s]" spec (String.concat "; " (names ks))
    | Error msg -> msg
  in
  check Alcotest.string "one unknown among known names"
    ("unknown kernel \"typo\"; valid: " ^ valid)
    (rejected "churn,typo");
  check Alcotest.string "only unknown names"
    ("unknown kernels \"relocation_storm\", \"x\"; valid: " ^ valid)
    (rejected "relocation_storm,load-word,x");
  check Alcotest.string "an empty name" ("unknown kernel \"\"; valid: " ^ valid)
    (rejected "churn,")

let suite =
  [
    ( "bench.micro",
      [
        case "every kernel runs one round" `Quick every_kernel_runs;
        case "--only selects by name" `Quick select_by_name;
        case "--only rejects unknown names" `Quick select_rejects_unknown;
      ] );
  ]
