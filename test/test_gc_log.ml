(* Tests for the structured GC events (the -Xlog:gc analogue). *)

module Gc_log = Hcsgc_core.Gc_log
module Vm = Hcsgc_runtime.Vm
module Collector = Hcsgc_core.Collector
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module Layout = Hcsgc_heap.Layout

let check = Alcotest.check
let case = Alcotest.test_case

let layout = Layout.scaled ~small_page:(16 * 1024)

(* Install a sink that keeps every event the VM's collector emits; the
   returned thunk reads them back, oldest first. *)
let record vm =
  let events = ref [] in
  Collector.set_sink (Vm.collector vm) (fun e -> events := e :: !events);
  fun () -> List.rev !events

let pause_names () =
  check (Alcotest.list Alcotest.string) "ZGC pause names"
    [ "Pause Mark Start"; "Pause Mark End"; "Pause Relocate Start" ]
    (List.map Gc_log.pause_name [ Gc_log.STW1; Gc_log.STW2; Gc_log.STW3 ])

let vm_records_cycle_structure () =
  let vm = Vm.create ~layout ~config:Config.zgc ~max_heap:(1024 * 1024) () in
  let events = record vm in
  for _ = 1 to 40_000 do
    ignore (Vm.alloc vm ~nrefs:0 ~nwords:12)
  done;
  Vm.finish vm;
  let events = events () in
  let count p = List.length (List.filter p events) in
  let starts = count (function Gc_log.Cycle_start _ -> true | _ -> false) in
  let ends = count (function Gc_log.Cycle_end _ -> true | _ -> false) in
  let stw1 =
    count (function Gc_log.Pause { pause = Gc_log.STW1; _ } -> true | _ -> false)
  in
  let stw3 =
    count (function Gc_log.Pause { pause = Gc_log.STW3; _ } -> true | _ -> false)
  in
  let cycles = Gc_stats.cycles (Vm.gc_stats vm) in
  check Alcotest.bool "cycles happened" true (cycles > 0);
  check Alcotest.int "one start per cycle" cycles starts;
  check Alcotest.int "one STW1 per cycle" cycles stw1;
  check Alcotest.bool "three pauses per completed cycle" true (stw3 <= stw1);
  check Alcotest.bool "ends recorded" true (ends > 0);
  (* Event order within the first cycle: start before its STW1, STW1 before
     mark end, mark end before EC selection. *)
  let rec index ?(i = 0) p = function
    | [] -> -1
    | e :: rest -> if p e then i else index ~i:(i + 1) p rest
  in
  let first p = index p events in
  check Alcotest.bool "start < stw1" true
    (first (function Gc_log.Cycle_start { cycle = 1; _ } -> true | _ -> false)
    < first (function
        | Gc_log.Pause { cycle = 1; pause = Gc_log.STW1; _ } -> true
        | _ -> false));
  check Alcotest.bool "mark end < ec" true
    (first (function Gc_log.Mark_end { cycle = 1; _ } -> true | _ -> false)
    < first (function Gc_log.Ec_selected { cycle = 1; _ } -> true | _ -> false))

let lazy_deferral_logged () =
  let vm =
    Vm.create ~layout ~config:(Config.of_id 4) ~max_heap:(1024 * 1024) ()
  in
  let events = record vm in
  let keeper = Vm.alloc vm ~nrefs:64 ~nwords:0 in
  Vm.add_root vm keeper;
  for i = 0 to 63 do
    let o = Vm.alloc vm ~nrefs:0 ~nwords:2 in
    Vm.store_ref vm keeper i (Some o)
  done;
  for _ = 1 to 40_000 do
    ignore (Vm.alloc vm ~nrefs:0 ~nwords:12)
  done;
  Vm.finish vm;
  check Alcotest.bool "lazy deferral events present" true
    (List.exists
       (function Gc_log.Relocation_deferred _ -> true | _ -> false)
       (events ()))

(* No consumer, no events: a VM emits GC events only once telemetry
   installs the recorder's translator as the collector's sink. *)
let off_by_default () =
  let vm = Vm.create ~layout ~config:Config.zgc ~max_heap:(1024 * 1024) () in
  let churn () =
    for _ = 1 to 40_000 do
      ignore (Vm.alloc vm ~nrefs:0 ~nwords:12)
    done
  in
  churn ();
  check Alcotest.bool "no recorder" true (Vm.telemetry vm = None);
  let r = Vm.enable_telemetry vm in
  churn ();
  Vm.finish vm;
  check Alcotest.bool "pauses reach the recorder once enabled" true
    (Hcsgc_telemetry.Analyzer.pause_intervals r <> [])

let suite =
  [
    ( "core.gc_log",
      [
        case "rendering" `Quick pause_names;
        case "cycle structure" `Quick vm_records_cycle_structure;
        case "lazy deferral" `Quick lazy_deferral_logged;
        case "off by default" `Quick off_by_default;
      ] );
  ]
