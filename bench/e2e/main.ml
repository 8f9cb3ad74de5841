(* bench/e2e: the end-to-end benchmark.

   One process, one domain, verification off.  A run sets the workload up
   several times (set-up time is reported on its own), runs one untimed
   warm-up pass over the workload's whole job list, then repeats timed
   passes until --seconds have elapsed since the set-up.  A pass opens a
   fresh result store, runs every job into it the way the Runner does
   (look up, simulate on a fresh VM, store), and reads every result back.
   Every pass must produce the same output digests as the warm-up pass,
   whose digests are also checked against the pins in expected.tsv and
   against invariants that hold for any seed.

   --trace 1 alternates untraced and traced passes: traced passes record
   host-time spans around each library call and sample the CPU by layer,
   and report the per-layer ledger instead of the end-to-end metrics.

   Run from the repository root:
     dune exec --profile release bench/e2e/main.exe -- \
       --workload f4-sweep --seed 1 --seconds 20 --trace 0 *)

module W = Workloads
module Vm = Hcsgc_runtime.Vm
module Collector = Hcsgc_core.Collector
module Fingerprint = Hcsgc_store.Fingerprint
module Result_store = Hcsgc_store.Result_store
module Analyzer = Hcsgc_telemetry.Analyzer

let median xs = Hcsgc_stats.Descriptive.median (Array.of_list xs)
let med f xs = median (List.map f xs)

let bench_dir = "bench/e2e"
let pins_file = Filename.concat bench_dir "expected.tsv"
let tmp_root = Filename.concat bench_dir "_tmp"
let trace_root = Filename.concat bench_dir "_trace"
let setup_reps = 25
let now = Unix.gettimeofday

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench/e2e: " ^ s);
      exit 2)
    fmt

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d = Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !n) in
    rm_rf d;
    d

let cleanup () =
  if Sys.file_exists tmp_root then begin
    let mine = Printf.sprintf "%d-" (Unix.getpid ()) in
    Array.iter
      (fun f -> if String.starts_with ~prefix:mine f then rm_rf (Filename.concat tmp_root f))
      (Sys.readdir tmp_root);
    if Sys.readdir tmp_root = [||] then Sys.rmdir tmp_root
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let peak_rss_mb () =
  let line =
    String.split_on_char '\n' (read_file "/proc/self/status")
    |> List.find (String.starts_with ~prefix:"VmHWM:")
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* Everything a pass needs before it simulates: an opened result store,
   the expanded job list, and each job's VM (simulated heap, caches and
   tier), built and dropped. *)
let setup (w : W.t) ~seed =
  let dir = fresh_dir () in
  let t0 = now () in
  ignore (Result_store.open_ ~dir);
  let jobs = w.W.jobs ~seed in
  List.iter (fun (j : W.job) -> ignore (Sys.opaque_identity (j.W.make_vm ()))) jobs;
  let dt = now () -. t0 in
  rm_rf dir;
  (* Drop the set-up's VMs now, so they do not inflate the peak memory
     measured over the first pass. *)
  Gc.full_major ();
  (dt, jobs)

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type pass = {
  traced : bool;
  seconds : float;
  kernel : float;  (* calibration kernel seconds around the pass *)
  results : (string * (W.outcome, string) result) list;  (* job label → outcome *)
  digests : (string * string) list;
  failures : (string * string) list;  (* job label, reason *)
  store : Result_store.counters;
  span_range : int * int;  (* this pass's spans in the recorder *)
  cycle_window : float;  (* host seconds inside GC cycles (traced) *)
  alloc_words : float;
  major_collections : int;
}

(* Host time between a cycle's Mark_done and Stw3_done edges is pure
   collector work (retire, EC selection, demotion, STW3); it is recorded
   as a span under whatever call is running.  Stw1_done to Cycle_done is
   the whole cycle window, interleaved with mutator work. *)
let install_phase_hook tr vm cycle_window =
  let mark = ref 0.0 and cycle = ref 0.0 in
  Collector.set_phase_hook (Vm.collector vm)
    (Some
       (function
       | Collector.Stw1_done -> cycle := now ()
       | Collector.Mark_done -> mark := now ()
       | Collector.Stw3_done -> Trace.add tr "gc.ec_select" ~start:!mark ~stop:(now ())
       | Collector.Cycle_done -> cycle_window := !cycle_window +. (now () -. !cycle)))

(* One job, as [Runner.execute ~cache] runs a miss: look up, simulate on
   a fresh VM, store the payload with its cost. *)
let run_job tr ~traced ~store ~cycle_window (job : W.job) =
  Trace.span tr "job" (fun () ->
      ignore (Trace.span tr "store.find" (fun () -> Result_store.find store job.W.fingerprint));
      let t0 = now () in
      let vm = Trace.span tr "make_vm" job.W.make_vm in
      if traced then install_phase_hook tr vm cycle_window;
      let o = job.W.execute tr vm in
      Trace.span tr "store.add" (fun () ->
          Result_store.add store job.W.fingerprint ~cost_key:job.W.cost_key
            ~cost:(now () -. t0) o.W.payload);
      o)

let words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s.Gc.major_collections)

(* [warmup] runs a full major collection after every job, so the first
   pass's peak memory is one job's footprint rather than an accident of
   when the previous job's VM was collected; its time is not used. *)
let run_pass ?(warmup = false) tr (w : W.t) ~traced jobs =
  let k0 = if warmup then 0.0 else Calib.kernel () in
  Trace.set_on tr traced;
  let first_span = Trace.length tr in
  let cycle_window = ref 0.0 in
  let w0, maj0 = words () in
  if traced then Prof.start ();
  let t0 = now () in
  let dir = fresh_dir () in
  let store = Trace.span tr "store.open" (fun () -> Result_store.open_ ~dir) in
  let results =
    List.mapi
      (fun i (job : W.job) ->
        Trace.set_job tr i;
        ( job.W.label,
          match run_job tr ~traced ~store ~cycle_window job with
          | o ->
              if warmup then Gc.full_major ();
              Ok o
          | exception e -> Error (Printexc.to_string e) ))
      jobs
  in
  Trace.set_job tr (-1);
  let roundtrip =
    List.map2
      (fun (job : W.job) (label, r) ->
        match r with
        | Error _ -> None
        | Ok (o : W.outcome) -> (
            match Trace.span tr "store.find" (fun () -> Result_store.find store job.W.fingerprint) with
            | Some p when job.W.decode p = Some o.W.payload -> None
            | _ -> Some (label, "store round trip differs")))
      jobs results
  in
  let seconds = now () -. t0 in
  if traced then Prof.stop ();
  let w1, maj1 = words () in
  Trace.set_on tr false;
  let kernel = if warmup then 0.0 else (k0 +. Calib.kernel ()) /. 2.0 in
  let counters = Result_store.counters store in
  rm_rf dir;
  let ok = List.filter_map (fun (l, r) -> Result.to_option r |> Option.map (fun o -> (l, o))) results in
  let failures =
    List.filter_map (fun (l, r) -> match r with Error e -> Some (l, e) | Ok _ -> None) results
    @ List.filter_map Fun.id roundtrip
    @ w.W.check ok
  in
  {
    traced;
    seconds;
    kernel;
    results;
    digests = List.map (fun (l, (o : W.outcome)) -> (l, Digest.to_hex (Digest.string o.W.text))) ok;
    failures;
    store = counters;
    span_range = (first_span, Trace.length tr);
    cycle_window = !cycle_window;
    alloc_words = w1 -. w0;
    major_collections = maj1 - maj0;
  }

(* A pass's host time in reference seconds (see Calib). *)
let reference_s p = Calib.reference ~kernel:p.kernel p.seconds

(* Failures of a later pass against the first: any digest that moved. *)
let drift ~reference p =
  List.filter_map
    (fun (l, d) ->
      match List.assoc_opt l reference with
      | Some d0 when d0 <> d -> Some (l, "output differs from the first pass")
      | _ -> None)
    p.digests

let pin_failures pins ~workload ~seed p =
  List.fold_left
    (fun (fails, matched, unpinned) (job, md5) ->
      match
        Pins.check pins ~code_version:Fingerprint.code_version ~workload ~seed ~job md5
      with
      | Pins.Match -> (fails, matched + 1, unpinned)
      | Pins.Unpinned -> (fails, matched, unpinned + 1)
      | Pins.Mismatch want ->
          ((job, Printf.sprintf "digest %s, pinned %s" md5 want) :: fails, matched, unpinned))
    ([], 0, 0) p.digests

(* ------------------------------------------------------------------ *)
(* The per-layer ledger (traced passes)                                *)
(* ------------------------------------------------------------------ *)

let fsum f outcomes =
  float_of_int (List.fold_left (fun acc (o : W.outcome) -> acc + f o.W.counts) 0 outcomes)

let ledger ~spans ~traced ~untraced ~outcomes ~jobs =
  let in_pass p f =
    let lo, hi = p.span_range in
    for i = lo to hi - 1 do f spans.(i) done
  in
  (* Per-pass host seconds in spans called [name], median over passes. *)
  let per_pass name =
    med
      (fun p ->
        let s = ref 0.0 in
        in_pass p (fun (sp : Trace.span) ->
            if sp.Trace.name = name then s := !s +. (sp.Trace.stop -. sp.Trace.start));
        !s)
      traced
  in
  let durations name =
    Array.to_list spans
    |> List.filter_map (fun (sp : Trace.span) ->
           if sp.Trace.name = name then Some (sp.Trace.stop -. sp.Trace.start) else None)
  in
  let p50 name = match durations name with [] -> 0.0 | d -> median d in
  let c f = fsum f outcomes in
  let loads = c (fun k -> k.W.loads) in
  let accesses = loads +. c (fun k -> k.W.stores) in
  let reloc = c (fun k -> k.W.reloc_mut + k.W.reloc_gc) in
  let barriers = c (fun k -> k.W.barrier_fast + k.W.barrier_slow) in
  let served =
    List.filter_map
      (fun (o : W.outcome) ->
        match o.W.detail with W.Served { report; waits; _ } -> Some (report, waits) | _ -> None)
      outcomes
  in
  let waits = Array.concat (List.map snd served) in
  let violations = List.fold_left (fun a (r, _) -> a + r.Hcsgc_serve.Slo.violations) 0 served in
  let pause_attr = List.fold_left (fun a (r, _) -> a + r.Hcsgc_serve.Slo.pause_attributed) 0 served in
  let store = (List.hd traced).store in
  let top_level p =
    let s = ref 0.0 in
    in_pass p (fun sp -> if sp.Trace.parent < 0 then s := !s +. (sp.Trace.stop -. sp.Trace.start));
    !s
  in
  let ms x = 1000.0 *. x in
  [
    ("memsim.accesses", accesses, "count");
    ("memsim.l1_miss_ratio", Report.ratio (c (fun k -> k.W.l1_misses)) loads, "1");
    ("memsim.llc_miss_ratio", Report.ratio (c (fun k -> k.W.llc_misses)) loads, "1");
    ("memsim.prefetches", c (fun k -> k.W.prefetches), "count");
    ("memsim.far_loads", c (fun k -> k.W.far_loads), "count");
    ("heap.bytes_allocated", c (fun k -> k.W.bytes_allocated), "B");
    ("heap.pages_freed", c (fun k -> k.W.pages_freed), "count");
    ("core.gc_cycles", c (fun k -> k.W.gc_cycles), "count");
    ("core.objects_marked", c (fun k -> k.W.objects_marked), "count");
    ("core.reloc_objects", reloc, "count");
    ("core.mutator_reloc_share", Report.ratio (c (fun k -> k.W.reloc_mut)) reloc, "1");
    ("core.barrier_slow_ratio", Report.ratio (c (fun k -> k.W.barrier_slow)) barriers, "1");
    ( "core.ec_pages_median",
      med (fun (o : W.outcome) -> o.W.counts.W.ec_median) outcomes,
      "pages" );
    ("core.pages_demoted", c (fun k -> k.W.pages_demoted), "count");
    ("core.pages_promoted", c (fun k -> k.W.pages_promoted), "count");
    ("core.ec_select_ms", ms (per_pass "gc.ec_select"), "ms");
    ("core.cycle_window_share", med (fun p -> p.cycle_window /. p.seconds) traced, "1");
    ("runtime.ops", c (fun k -> k.W.ops), "count");
    ("runtime.sim_mcycles", c (fun k -> k.W.wall_cycles) /. 1e6, "Mcycles");
    ("runtime.stw_mcycles", c (fun k -> k.W.stw_cycles) /. 1e6, "Mcycles");
    ("runtime.finish_ms", ms (per_pass "vm.finish"), "ms");
    ("serve.requests", float_of_int (Array.length waits), "count");
    ("serve.run_s", per_pass "serve.run", "s");
    ("serve.slo_analyze_s", per_pass "slo.analyze", "s");
    ( "serve.wait_p99_us",
      (if waits = [||] then 0.0
       else W.us (Analyzer.percentile (Array.to_list waits) ~pct:99.0)),
      "us" );
    ( "serve.pause_attributed_frac",
      Report.ratio (float_of_int pause_attr) (float_of_int violations),
      "1" );
    ("telemetry.pause_intervals_ms", ms (per_pass "analyzer.pause_intervals"), "ms");
    ("store.open_ms", ms (per_pass "store.open"), "ms");
    ("store.add_ms_p50", ms (p50 "store.add"), "ms");
    ("store.find_ms_p50", ms (p50 "store.find"), "ms");
    ("store.bytes_written", float_of_int store.Result_store.bytes_written, "B");
    ("store.hits", float_of_int store.Result_store.hits, "count");
    ("store.misses", float_of_int store.Result_store.misses, "count");
    ("store.corrupt", float_of_int store.Result_store.corrupt, "count");
    ("runner.jobs", float_of_int jobs, "count");
    ("runner.job_s_p50", p50 "job", "s");
    ("runner.job_s_max", List.fold_left Float.max 0.0 (durations "job"), "s");
    ("runner.make_vm_ms", ms (per_pass "make_vm"), "ms");
    ("runner.collect_ms", ms (per_pass "runner.collect"), "ms");
    ( "ocaml.alloc_words_per_access",
      Report.ratio (med (fun p -> p.alloc_words) untraced) accesses,
      "words" );
    ( "ocaml.major_collections",
      med (fun p -> float_of_int p.major_collections) untraced,
      "count" );
    ("prof.samples", float_of_int (Prof.samples ()), "count");
  ]
  @ List.map (fun (l, s) -> (Printf.sprintf "prof.%s_share" l, s, "1")) (Prof.shares ())
  @ [
      ( "bench.span_unaccounted_pct",
        med (fun p -> 100.0 *. (p.seconds -. top_level p) /. p.seconds) traced,
        "%" );
      ( "bench.trace_overhead_pct",
        100.0 *. ((med reference_s traced /. med reference_s untraced) -. 1.0),
        "%" );
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let emit_pins = ref false in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "W " ^ String.concat "|" (List.map (fun (w : W.t) -> w.W.name) W.all) );
      ("--seed", Arg.Set_int seed, "S workload seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "N measure passes for N seconds (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 traced run with the per-layer ledger (default 0)");
      ("--emit-pins", Arg.Set emit_pins, " run one pass and print its expected.tsv lines");
    ]
  in
  let usage = "main.exe --workload W [--seed S] [--seconds N] [--trace 0|1] [--emit-pins]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.find_opt (fun (w : W.t) -> w.W.name = !workload) W.all with
    | Some w -> w
    | None -> die "unknown workload %S\n%s" !workload (Arg.usage_string spec usage)
  in
  if !seed < 0 then die "--seed must be >= 0";
  if !seconds < 1 then die "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (* The heap sanitizer would take the collector's only phase-hook slot. *)
  if Sys.getenv_opt "HCSGC_VERIFY" <> None then die "refusing to run with HCSGC_VERIFY set";
  if not (Sys.file_exists pins_file) then
    die "%s not found: run from the repository root" pins_file;
  let pins =
    match Pins.parse (read_file pins_file) with
    | Ok p -> p
    | Error e -> die "%s: %s" pins_file e
  in
  at_exit cleanup;
  let seed = !seed and traced_run = !trace = 1 in
  let tr = Trace.create () in
  if !emit_pins then begin
    let p = run_pass tr w ~traced:false (w.W.jobs ~seed) in
    List.iter (fun (l, e) -> die "job %s failed: %s" l e) p.failures;
    List.iter
      (fun (job, md5) ->
        print_endline
          (Pins.to_line
             { Pins.code_version = Fingerprint.code_version; workload = w.W.name; seed; job; md5 }))
      p.digests;
    exit 0
  end;
  let k0 = Calib.kernel () in
  let setups = List.init setup_reps (fun _ -> setup w ~seed) in
  let setup_kernel = (k0 +. Calib.kernel ()) /. 2.0 in
  let jobs = snd (List.hd setups) in
  let deadline = now () +. float_of_int !seconds in
  let first = run_pass ~warmup:true tr w ~traced:false jobs in
  let rss = peak_rss_mb () in
  (* Untraced and traced passes alternate in a traced run, so the tracing
     overhead is measured under the same machine conditions. *)
  let rec more acc k =
    if now () >= deadline && k > (if traced_run then 2 else 1) then List.rev acc
    else
      let p = run_pass tr w ~traced:(traced_run && k mod 2 = 0) jobs in
      more ({ p with results = [] } :: acc) (k + 1)
  in
  let timed = more [] 1 in
  let passes = first :: timed in
  let pin_fails, matched, unpinned = pin_failures pins ~workload:w.W.name ~seed first in
  let failures =
    (first.failures @ pin_fails)
    :: List.map (fun p -> p.failures @ drift ~reference:first.digests p) (List.tl passes)
  in
  let njobs = List.length jobs in
  let failed =
    List.fold_left
      (fun acc fs -> acc + List.length (List.sort_uniq compare (List.map fst fs)))
      0 failures
  in
  let attempted = njobs * List.length passes in
  let outcomes = List.filter_map (fun (_, r) -> Result.to_option r) first.results in
  let complete = List.length outcomes = njobs in
  let untraced = List.filter (fun p -> not p.traced) timed in
  let traced = List.filter (fun p -> p.traced) timed in
  Printf.printf "bench/e2e %s seed %d: %d jobs x %d passes (%d traced), code_version %s\n"
    w.W.name seed njobs (List.length passes) (List.length traced) Fingerprint.code_version;
  Printf.printf "pins: %d matched, %d unpinned\n" matched unpinned;
  Printf.printf "pass seconds (warm-up, then t = traced): %.3f |%s\n" first.seconds
    (String.concat ""
       (List.map (fun p -> Printf.sprintf " %.3f%s" p.seconds (if p.traced then "t" else "")) timed));
  Printf.printf "host seconds: median pass %.4f, median calibration kernel %.4f (reference %.2f)\n"
    (med (fun p -> p.seconds) timed) (med (fun p -> p.kernel) timed) Calib.ref_kernel_s;
  List.iter
    (fun fs -> List.iter (fun (l, e) -> Printf.printf "FAILED %s: %s\n" l e) fs)
    failures;
  let sim = if complete then w.W.sim outcomes else [] in
  let metrics =
    if traced_run then begin
      let spans = Trace.spans tr in
      if not (Sys.file_exists trace_root) then Sys.mkdir trace_root 0o755;
      let base = Filename.concat trace_root (Printf.sprintf "%s-seed%d" w.W.name seed) in
      write_file (base ^ ".trace.json") (Trace.chrome_json spans);
      let rows = Trace.self_times spans in
      write_file (base ^ ".selftime.tsv") (Trace.self_table rows);
      Printf.printf "trace: %s.trace.json, self time per span: %s.selftime.tsv\n" base base;
      print_string (Trace.self_table rows);
      if complete then ledger ~spans ~traced ~untraced ~outcomes ~jobs:njobs else []
    end
    else begin
      let accesses = fsum (fun k -> k.W.loads + k.W.stores) outcomes in
      let wall = med reference_s untraced in
      [
        ( "setup_s",
          Calib.reference ~kernel:setup_kernel (median (List.map fst setups)),
          "s" );
        ("wall_s", wall, "s");
        ("ns_per_sim_access", 1e9 *. Report.ratio wall accesses, "ns");
        ("peak_rss_mb", rss, "MiB");
      ]
      @ List.filter (fun (n, _, _) -> n = "sim_speedup") sim
    end
  in
  print_endline "metrics:";
  List.iter (fun m -> print_endline (Report.metric_line m)) metrics;
  print_endline "simulated outcomes:";
  List.iter (fun m -> print_endline (Report.metric_line m)) sim;
  print_endline
    (Report.result_json ~correct:(failed = 0) ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)
