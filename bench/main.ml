(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4) plus bechamel micro-benchmarks of HCSGC's primitives.

   Usage:
     dune exec bench/main.exe                    # everything, fast settings
     dune exec bench/main.exe -- --only f4,f12   # selected artefacts
     dune exec bench/main.exe -- --runs 10       # bigger samples
     dune exec bench/main.exe -- -j 4            # 4 worker domains per sweep
     dune exec bench/main.exe -- --full          # paper-closer sizes (slow)
     dune exec bench/main.exe -- --list          # artefact ids *)

module E = Hcsgc_experiments

let fmt = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (one Bechamel test per primitive)                   *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let module Machine = Hcsgc_memsim.Machine in
  let module Bitmap = Hcsgc_util.Bitmap in
  let module Prefetcher = Hcsgc_memsim.Prefetcher in
  let module Vm = Hcsgc_runtime.Vm in
  let module Config = Hcsgc_core.Config in
  (* Barrier fast path: repeated loads of a good-coloured slot. *)
  let vm = Vm.create ~config:Config.zgc ~max_heap:(32 * 1024 * 1024) () in
  let src = Vm.alloc vm ~nrefs:1 ~nwords:0 in
  Vm.add_root vm src;
  let target = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.store_ref vm src 0 (Some target);
  let machine = Machine.create ~cores:1 () in
  let bitmap = Bitmap.create 4096 in
  let pf = Prefetcher.create () in
  let addr = ref 0 in
  let bit = ref 0 in
  let tests =
    [
      Test.make ~name:"barrier-fast-path"
        (Staged.stage (fun () -> ignore (Vm.load_ref vm src 0)));
      Test.make ~name:"hotmap-test-and-set"
        (Staged.stage (fun () ->
             bit := (!bit + 1) land 4095;
             ignore (Bitmap.test_and_set bitmap !bit)));
      Test.make ~name:"cache-hierarchy-load"
        (Staged.stage (fun () ->
             addr := (!addr + 64) land 0xFFFFF;
             ignore (Machine.load machine ~core:0 !addr)));
      Test.make ~name:"prefetcher-observe"
        (Staged.stage (fun () ->
             incr bit;
             ignore (Prefetcher.observe pf !bit)));
    ]
  in
  Format.fprintf fmt "=== Micro-benchmarks (bechamel, ns/run via OLS) ===@.";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let m = Benchmark.run cfg Toolkit.Instance.[ monotonic_clock ] elt in
          let ols =
            Analyze.OLS.ols ~bootstrap:0 ~r_square:true
              ~responder:"monotonic-clock" ~predictors:[| "run" |]
              m.Benchmark.lr
          in
          let est =
            match Analyze.OLS.estimates ols with
            | Some (x :: _) -> Printf.sprintf "%.1f ns" x
            | _ -> "n/a"
          in
          Format.fprintf fmt "  %-24s %s@." (Test.Elt.name elt) est)
        (Test.elements test))
    tests;
  Format.pp_print_newline fmt ()

(* ------------------------------------------------------------------ *)
(* Artefact registry                                                   *)
(* ------------------------------------------------------------------ *)

type artefact = {
  id : string;
  what : string;
  run :
    runs:int option ->
    full:bool ->
    jobs:int ->
    cache:E.Runner.cache option ->
    scheduling:[ `Cost | `Fifo ] ->
    unit;
}

let scale_or ~full fast_scale full_scale = if full then full_scale else fast_scale

let or_runs r d = match r with Some r -> r | None -> d

(* [cache]/[scheduling] reach the figure sweeps (which run through
   Runner.run_configs); tables, micro-benchmarks, the ablations and the
   SPECjbb composite (which keeps a workload-specific result record the
   store does not model) simply ignore them. *)
let artefacts =
  [
    { id = "t1"; what = "Table 1: ZGC page size classes";
      run = (fun ~runs:_ ~full:_ ~jobs:_ ~cache:_ ~scheduling:_ -> E.Tables.t1 fmt) };
    { id = "t2"; what = "Table 2: the 19 benchmark configurations";
      run = (fun ~runs:_ ~full:_ ~jobs:_ ~cache:_ ~scheduling:_ -> E.Tables.t2 fmt) };
    { id = "t3"; what = "Table 3: LAW graph datasets (generator stand-ins)";
      run =
        (fun ~runs:_ ~full:_ ~jobs:_ ~cache:_ ~scheduling:_ ->
          E.Tables.t3 ~scale:4 fmt) };
    { id = "f4"; what = "Fig. 4: synthetic, single phase";
      run =
        (fun ~runs ~full ~jobs ~cache ~scheduling ->
          E.Fig_synthetic.fig4 ~runs:(or_runs runs (if full then 10 else 3)) ~jobs
            ?cache ~scheduling ~scale:(scale_or ~full 2 1) fmt) };
    { id = "f5"; what = "Fig. 5: synthetic, three phases";
      run =
        (fun ~runs ~full ~jobs ~cache ~scheduling ->
          E.Fig_synthetic.fig5 ~runs:(or_runs runs (if full then 10 else 3)) ~jobs
            ?cache ~scheduling ~scale:(scale_or ~full 2 1) fmt) };
    { id = "f6"; what = "Fig. 6: ample relocation, saturated core";
      run =
        (fun ~runs ~full ~jobs ~cache ~scheduling ->
          E.Fig_synthetic.fig6 ~runs:(or_runs runs (if full then 5 else 2)) ~jobs
            ?cache ~scheduling ~scale:(scale_or ~full 4 2) fmt) };
    { id = "f7"; what = "Fig. 7: CC on uk";
      run =
        (fun ~runs ~full ~jobs ~cache ~scheduling ->
          E.Fig_graph.fig7 ~runs:(or_runs runs 3) ~jobs ?cache
            ~scheduling ~scale:(scale_or ~full 16 8) fmt) };
    { id = "f8"; what = "Fig. 8: CC on enwiki";
      run =
        (fun ~runs ~full ~jobs ~cache ~scheduling ->
          E.Fig_graph.fig8 ~runs:(or_runs runs 3) ~jobs ?cache
            ~scheduling ~scale:(scale_or ~full 16 8) fmt) };
    { id = "f9"; what = "Fig. 9: MC on uk";
      run =
        (fun ~runs ~full ~jobs ~cache ~scheduling ->
          E.Fig_graph.fig9 ~runs:(or_runs runs 2) ~jobs ?cache
            ~scheduling ~scale:(scale_or ~full 4 2) fmt) };
    { id = "f10"; what = "Fig. 10: MC on enwiki";
      run =
        (fun ~runs ~full ~jobs ~cache ~scheduling ->
          E.Fig_graph.fig10 ~runs:(or_runs runs 2) ~jobs ?cache
            ~scheduling ~scale:(scale_or ~full 4 2) fmt) };
    { id = "f11"; what = "Fig. 11: DaCapo tradebeans (simulated)";
      run =
        (fun ~runs ~full ~jobs ~cache ~scheduling ->
          E.Fig_dacapo.fig11 ~runs:(or_runs runs (if full then 5 else 3)) ~jobs
            ?cache ~scheduling ~scale:(scale_or ~full 2 1) fmt) };
    { id = "f12"; what = "Fig. 12: DaCapo h2 (simulated)";
      run =
        (fun ~runs ~full ~jobs ~cache ~scheduling ->
          E.Fig_dacapo.fig12 ~runs:(or_runs runs (if full then 5 else 2)) ~jobs
            ?cache ~scheduling ~scale:(scale_or ~full 2 1) fmt) };
    { id = "f13"; what = "Fig. 13: SPECjbb2015 (simulated)";
      run =
        (fun ~runs ~full ~jobs ~cache:_ ~scheduling:_ ->
          E.Fig_specjbb.fig13 ~runs:(or_runs runs 2) ~jobs
            ~scale:(scale_or ~full 2 1) fmt) };
    { id = "abl-prefetch"; what = "ablation: access-order layout needs prefetching";
      run =
        (fun ~runs ~full ~jobs ~cache:_ ~scheduling:_ ->
          E.Ablations.prefetcher ~runs:(or_runs runs 3) ~jobs
            ~scale:(scale_or ~full 2 1) fmt) };
    { id = "abl-tlb"; what = "ablation: page-locality (dTLB) effect";
      run =
        (fun ~runs ~full ~jobs ~cache:_ ~scheduling:_ ->
          E.Ablations.tlb ~runs:(or_runs runs 3) ~jobs ~scale:(scale_or ~full 2 1)
            fmt) };
    { id = "abl-pagesize"; what = "ablation: page-size-class granularity";
      run =
        (fun ~runs ~full ~jobs ~cache:_ ~scheduling:_ ->
          E.Ablations.page_size ~runs:(or_runs runs 3) ~jobs
            ~scale:(scale_or ~full 2 1) fmt) };
    { id = "abl-autotune"; what = "ablation: COLDCONFIDENCE feedback loop";
      run =
        (fun ~runs ~full ~jobs ~cache:_ ~scheduling:_ ->
          E.Ablations.autotuner ~runs:(or_runs runs 3) ~jobs
            ~scale:(scale_or ~full 2 1) fmt) };
    { id = "micro"; what = "bechamel micro-benchmarks of HCSGC primitives";
      run = (fun ~runs:_ ~full:_ ~jobs:_ ~cache:_ ~scheduling:_ -> micro ()) };
  ]

let () =
  let only = ref [] in
  let runs = ref None in
  let full = ref false in
  let list_only = ref false in
  let jobs = ref (Hcsgc_exec.Pool.default_jobs ()) in
  let cache_dir = ref E.Runner.default_cache_dir in
  let no_cache = ref false in
  let refresh = ref false in
  let fifo = ref false in
  let set_jobs n =
    if n < 1 then raise (Arg.Bad "--jobs must be >= 1");
    jobs := n
  in
  let spec =
    [
      ( "--only",
        Arg.String
          (fun s -> only := String.split_on_char ',' s |> List.map String.trim),
        "IDS comma-separated artefact ids (see --list)" );
      ("--runs", Arg.Int (fun n -> runs := Some n), "N sample size per config");
      ( "--jobs",
        Arg.Int set_jobs,
        Printf.sprintf
          "N worker domains for sweeps (default: cores, clamped; here %d); \
           output is identical at any N"
          !jobs );
      ("-j", Arg.Int set_jobs, "N short for --jobs");
      ("--full", Arg.Set full, " paper-closer sizes (much slower)");
      ( "--cache-dir",
        Arg.Set_string cache_dir,
        Printf.sprintf
          "DIR persistent result store for sweep jobs (default %s); warm \
           runs are byte-identical to cold ones"
          !cache_dir );
      ("--no-cache", Arg.Set no_cache, " disable the result store entirely");
      ( "--refresh",
        Arg.Set refresh,
        " recompute every job and overwrite its store entry" );
      ( "--fifo",
        Arg.Set fifo,
        " submit jobs in expansion order instead of longest-estimated-first \
         (for measuring the scheduler; output is identical either way)" );
      ("--list", Arg.Set list_only, " list artefact ids and exit");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/main.exe -- regenerate the paper's tables and figures";
  if !list_only then
    List.iter (fun a -> Printf.printf "%-6s %s\n" a.id a.what) artefacts
  else begin
    let selected =
      if !only = [] then artefacts
      else
        List.map
          (fun id ->
            match List.find_opt (fun a -> a.id = id) artefacts with
            | Some a -> a
            | None -> failwith ("unknown artefact id: " ^ id))
          !only
    in
    let cache =
      if !no_cache then None
      else Some (E.Runner.cache ~refresh:!refresh ~dir:!cache_dir ())
    in
    let scheduling = if !fifo then `Fifo else `Cost in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun a ->
        Format.eprintf "[bench] running %s (%s)@." a.id a.what;
        a.run ~runs:!runs ~full:!full ~jobs:!jobs ~cache ~scheduling)
      selected;
    (* One auditable cache line per sweep (stderr, like all progress
       output, so stdout panels stay byte-identical cold vs warm). *)
    (match cache with
    | None -> ()
    | Some c ->
        let s = Hcsgc_store.Result_store.counters c.E.Runner.store in
        Format.eprintf "[bench] %s@."
          (Hcsgc_telemetry.Summary.store_line
             ~dir:(Hcsgc_store.Result_store.dir c.E.Runner.store)
             ~hits:s.Hcsgc_store.Result_store.hits
             ~misses:s.Hcsgc_store.Result_store.misses
             ~corrupt:s.Hcsgc_store.Result_store.corrupt
             ~stored:s.Hcsgc_store.Result_store.stored
             ~bytes_read:s.Hcsgc_store.Result_store.bytes_read
             ~bytes_written:s.Hcsgc_store.Result_store.bytes_written));
    Format.eprintf "[bench] done in %.1fs@." (Unix.gettimeofday () -. t0)
  end
