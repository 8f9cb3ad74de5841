(* Tests for the trace record/replay workload. *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Layout = Hcsgc_heap.Layout
module Trace = Hcsgc_workloads.Trace
module Rng = Hcsgc_util.Rng

let check = Alcotest.check
let case = Alcotest.test_case

let mk_vm ?(config = Config.zgc) () =
  Vm.create
    ~layout:(Layout.scaled ~small_page:(16 * 1024))
    ~config ~max_heap:(4 * 1024 * 1024) ()

let hand_trace =
  {
    Trace.registers = 3;
    ops =
      [|
        Trace.Alloc { reg = 0; nrefs = 2; nwords = 1 };
        Trace.Alloc { reg = 1; nrefs = 0; nwords = 1 };
        Trace.Write_word { reg = 1; word = 0; value = 7 };
        Trace.Store { to_reg = 0; slot = 0; from_reg = 1 };
        Trace.Load { reg = 2; from_reg = 0; slot = 0 };
        Trace.Read_word { reg = 2; word = 0 };
        Trace.Store_null { to_reg = 0; slot = 0 };
        Trace.Drop { reg = 1 };
        Trace.Work 100;
      |];
  }

let replay_hand_trace () =
  let vm = mk_vm () in
  let r = Trace.replay vm hand_trace in
  check Alcotest.int "all ops executed" 9 r.Trace.executed;
  (* Read_word saw value 7 at executed=6: checksum = 7 lxor 6... keep it a
     determinism check instead of hard-coding the digest. *)
  let r2 = Trace.replay (mk_vm ()) hand_trace in
  check Alcotest.int "deterministic checksum" r.Trace.checksum r2.Trace.checksum

let validate_rejects () =
  let bad =
    { Trace.registers = 2; ops = [| Trace.Drop { reg = 5 } |] }
  in
  check Alcotest.bool "bad register rejected" true
    (Result.is_error (Trace.validate bad));
  Alcotest.check_raises "replay refuses"
    (Invalid_argument "Trace.replay: invalid operation at index 0") (fun () ->
      ignore (Trace.replay (mk_vm ()) bad))

let synthesized_traces_replay_everywhere () =
  let trace =
    Trace.synthesize ~rng:(Rng.create 5) ~ops:20_000 ~registers:32 ~churn:0.3 ()
  in
  check Alcotest.bool "validates" true (Result.is_ok (Trace.validate trace));
  let go config = (Trace.replay (mk_vm ~config ()) trace).Trace.checksum in
  let base = go Config.zgc in
  List.iter
    (fun id ->
      check Alcotest.int
        (Printf.sprintf "checksum identical under config %d" id)
        base
        (go (Config.of_id id)))
    [ 3; 4; 16; 18 ]

let synthesized_traces_trigger_gc () =
  let trace =
    Trace.synthesize ~rng:(Rng.create 9) ~ops:40_000 ~registers:16
      ~nwords:12 ~churn:0.5 ()
  in
  let vm = mk_vm ~config:(Config.of_id 4) () in
  ignore (Trace.replay vm trace);
  Vm.finish vm;
  check Alcotest.bool "cycles ran" true
    (Hcsgc_core.Gc_stats.cycles (Vm.gc_stats vm) > 0);
  match
    Hcsgc_verify.Invariants.check (Vm.collector vm)
      ~edge:Hcsgc_core.Collector.Cycle_done
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" (List.hd e)

let pp_smoke () =
  let s = Format.asprintf "%a" Trace.pp_op (Trace.Load { reg = 1; from_reg = 2; slot = 3 }) in
  check Alcotest.string "render" "r1 := r2.[3]" s

let suite =
  [
    ( "workloads.trace",
      [
        case "hand trace replay" `Quick replay_hand_trace;
        case "validation" `Quick validate_rejects;
        case "config-independent checksums" `Slow
          synthesized_traces_replay_everywhere;
        case "synthesized churn triggers GC" `Quick synthesized_traces_trigger_gc;
        case "pp" `Quick pp_smoke;
      ] );
  ]
