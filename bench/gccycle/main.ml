(* bench/gccycle: GC-cycle kernels — the collector-side counterpart of
   bench/hotpath.

   Each kernel drives the collector directly (no VM pump) through repeated
   full GC cycles: a mutator phase runs outside the measured window, then
   one complete cycle (STW1 -> mark -> EC selection -> relocation -> sweep
   -> demotion) is timed and its host allocation measured via
   minor- and major-word deltas.  Reported are cycles/s and host words
   allocated per GC cycle; the latter backs the release-mode 0-words
   steady-state assertion in test/test_gccycle.ml.

   Usage:
     dune exec --profile release bench/gccycle/main.exe --
     dune exec --profile release bench/gccycle/main.exe -- --quick
     dune exec ... -- --only churn --rounds 500
     dune exec ... -- --out BENCH_gccycle.json --label post
     dune exec ... -- --write-baseline base.txt     # save numbers
     dune exec ... -- --baseline base.txt --out ... # embed speedups *)

module Heap = Hcsgc_heap.Heap
module Layout = Hcsgc_heap.Layout
module Machine = Hcsgc_memsim.Machine
module Tier = Hcsgc_memsim.Tier
module Collector = Hcsgc_core.Collector
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module Vec = Hcsgc_util.Vec

type result = {
  name : string;
  rounds : int;
  cycles_per_sec : float;
  us_per_cycle : float;
  words_per_cycle : float;
  sim_gc_cycles : int;
}

(* Drive one full GC cycle to completion. *)
let run_cycle col =
  Collector.start_cycle col;
  while Collector.in_cycle col do
    Collector.gc_work col ~budget:max_int
  done

let small_page = 16 * 1024
let layout = Layout.scaled ~small_page

let mk ?(cores = 2) ?(config = Config.zgc) ?(max_pages = 128) () =
  let heap = Heap.create ~layout ~max_bytes:(max_pages * small_page) () in
  let machine = Machine.create ~cores () in
  let tier =
    if config.Config.tier_capacity_pages > 0 then
      Some
        (Tier.create ~granule_bytes:small_page
           ~capacity_bytes:(config.Config.tier_capacity_pages * small_page)
           ~lat_far:config.Config.lat_far ())
    else None
  in
  Machine.set_tier machine tier;
  let roots = Vec.create () in
  let col =
    Collector.create ?tier ~heap ~machine ~config ~gc_core:(cores - 1)
      ~roots:(fun f -> Vec.iter f roots)
      ()
  in
  (col, roots)

(* Mutator-phase allocation; falls back to a forced cycle if the cap is
   hit (never happens at the sizes below, but keeps the kernels total). *)
let alloc_obj col ~core ~nrefs ~nwords =
  match Collector.alloc col ~core ~nrefs ~nwords with
  | Some (obj, _cost) -> obj
  | None -> (
      run_cycle col;
      match Collector.alloc col ~core ~nrefs ~nwords with
      | Some (obj, _cost) -> obj
      | None -> failwith "bench/gccycle: heap exhausted")

(* ---- kernels ----------------------------------------------------- *)

(* All garbage: every cycle marks only roots (none), selects every page
   into the EC and releases it without copying a single object.  The
   steady-state floor of a cycle — this is the 0-words acceptance kernel. *)
let churn () =
  let col, _roots = mk () in
  let mutate _r =
    for _ = 1 to 4_000 do
      ignore (alloc_obj col ~core:0 ~nrefs:1 ~nwords:6)
    done
  in
  (col, mutate)

(* A large live set with a third replaced every round: pages hover below
   the 75% EC threshold, so each cycle relocates thousands of survivors. *)
let relocation_storm () =
  let col, roots = mk () in
  let n = 3_000 in
  for _ = 1 to n do
    Vec.push roots (alloc_obj col ~core:0 ~nrefs:1 ~nwords:6)
  done;
  run_cycle col;
  let mutate r =
    let i = ref (r mod 3) in
    while !i < n do
      Vec.set roots !i (alloc_obj col ~core:0 ~nrefs:1 ~nwords:6);
      i := !i + 3
    done
  in
  (col, mutate)

(* Cold live set under HOTNESS + tiering: even rounds touch everything
   (far pages promote back to DRAM), odd rounds leave it cold (the sweep
   demotes the pages again) — every cycle runs the demotion scan. *)
let tiered_demotion () =
  let config =
    Config.make ~hotness:true ~cold_confidence:1.0 ~tier_capacity_pages:64 ()
  in
  let col, roots = mk ~config () in
  let n = 2_000 in
  for _ = 1 to n do
    Vec.push roots (alloc_obj col ~core:0 ~nrefs:1 ~nwords:6)
  done;
  run_cycle col;
  let mutate r =
    if r land 1 = 0 then
      for i = 0 to n - 1 do
        ignore (Collector.use_handle col ~core:0 (Vec.get roots i))
      done;
    for _ = 1 to 1_500 do
      ignore (alloc_obj col ~core:0 ~nrefs:1 ~nwords:6)
    done
  in
  (col, mutate)

(* Four mutator cores churning garbage and replacing slices of a shared
   live set: exercises the per-core allocation regions and the relocation
   machinery under interleaved multi-core traffic. *)
let multi_mutator () =
  let col, roots = mk ~cores:5 () in
  let muts = 4 in
  let per = 600 in
  for m = 0 to muts - 1 do
    for _ = 1 to per do
      Vec.push roots (alloc_obj col ~core:m ~nrefs:1 ~nwords:6)
    done
  done;
  run_cycle col;
  let n = muts * per in
  let mutate r =
    for m = 0 to muts - 1 do
      for _ = 1 to 700 do
        ignore (alloc_obj col ~core:m ~nrefs:1 ~nwords:6)
      done
    done;
    let i = ref (r mod 4) in
    while !i < n do
      Vec.set roots !i (alloc_obj col ~core:(!i mod muts) ~nrefs:1 ~nwords:6);
      i := !i + 4
    done
  in
  (col, mutate)

(* ---- measurement -------------------------------------------------- *)

(* Host words allocated so far: minor words plus words allocated directly
   in the major heap (arrays above the minor-heap size limit).  Not
   Gc.allocated_bytes: on OCaml 5.1 it counts the words of the current
   minor heap at one eighth and catches up at the next minor collection,
   so a window holding a minor GC jumps by ~230k words and any other
   window undercounts 8x.  The meter itself allocates its boxed results;
   the per-call constant is deterministic, so calibrate it once and
   subtract it per window. *)
let allocated_words () =
  let _minor, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let overhead_per_call () =
  let a0 = allocated_words () in
  let a1 = allocated_words () in
  a1 -. a0

let measure ~name ~warmup ~rounds (col, mutate) =
  for r = 1 to warmup do
    mutate r;
    run_cycle col
  done;
  let ovh = overhead_per_call () in
  let words = ref 0.0 and secs = ref 0.0 in
  for r = warmup + 1 to warmup + rounds do
    mutate r;
    let t0 = Unix.gettimeofday () in
    let a0 = allocated_words () in
    run_cycle col;
    let a1 = allocated_words () in
    let t1 = Unix.gettimeofday () in
    words := !words +. (a1 -. a0 -. ovh);
    secs := !secs +. (t1 -. t0)
  done;
  let fr = float_of_int rounds in
  {
    name;
    rounds;
    cycles_per_sec = (if !secs > 0.0 then fr /. !secs else 0.0);
    us_per_cycle = !secs *. 1e6 /. fr;
    words_per_cycle = !words /. fr;
    sim_gc_cycles = Gc_stats.cycles (Collector.stats col);
  }

let kernels =
  [
    ("churn", 30, 300, churn);
    ("relocation-storm", 15, 150, relocation_storm);
    ("tiered-demotion", 15, 150, tiered_demotion);
    ("multi-mutator", 10, 100, multi_mutator);
  ]

(* ---- baseline files and JSON -------------------------------------- *)

(* Baseline files are whitespace-separated "name cycles_per_sec
   words_per_cycle" lines — trivially parseable without a JSON reader. *)
let write_baseline file results =
  let oc = open_out file in
  List.iter
    (fun r ->
      Printf.fprintf oc "%s %.3f %.4f\n" r.name r.cycles_per_sec
        r.words_per_cycle)
    results;
  close_out oc

let read_baseline file =
  let ic = open_in file in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char ' ' (String.trim line) with
       | [ name; cps; wpc ] ->
           entries :=
             (name, (float_of_string cps, float_of_string wpc)) :: !entries
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

let json_of_results ~label ~baseline results =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"benchmark\": %S,\n" "bench/gccycle");
  Buffer.add_string b (Printf.sprintf "  \"label\": %S,\n" label);
  Buffer.add_string b (Printf.sprintf "  \"ocaml\": %S,\n" Sys.ocaml_version);
  Buffer.add_string b
    (Printf.sprintf "  \"word_bytes\": %d,\n" (Sys.word_size / 8));
  Buffer.add_string b "  \"kernels\": [\n";
  List.iteri
    (fun i r ->
      let base =
        match List.assoc_opt r.name baseline with
        | Some (cps, wpc) ->
            Printf.sprintf
              ", \"baseline_cycles_per_sec\": %.0f, \
               \"baseline_words_per_cycle\": %.4f, \"speedup\": %.2f"
              cps wpc
              (if cps > 0.0 then r.cycles_per_sec /. cps else 0.0)
        | None -> ""
      in
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": %S, \"rounds\": %d, \"cycles_per_sec\": %.0f, \
            \"us_per_cycle\": %.2f, \"words_per_cycle\": %.4f, \
            \"sim_gc_cycles\": %d%s }%s\n"
           r.name r.rounds r.cycles_per_sec r.us_per_cycle r.words_per_cycle
           r.sim_gc_cycles base
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let () =
  let rounds_override = ref 0 in
  let quick = ref false in
  let out = ref None in
  let only = ref [] in
  let label = ref "current" in
  let baseline_in = ref None in
  let baseline_out = ref None in
  let spec =
    [
      ( "--rounds",
        Arg.Set_int rounds_override,
        "N measured cycles per kernel (default: per-kernel)" );
      ("--quick", Arg.Set quick, " CI smoke sizes (rounds / 8)");
      ( "--only",
        Arg.String
          (fun s -> only := String.split_on_char ',' s |> List.map String.trim),
        "NAMES comma-separated kernel names" );
      ("--out", Arg.String (fun s -> out := Some s), "FILE write JSON here");
      ("--label", Arg.Set_string label, "S label stored in the JSON output");
      ( "--baseline",
        Arg.String (fun s -> baseline_in := Some s),
        "FILE baseline numbers to embed (speedup column)" );
      ( "--write-baseline",
        Arg.String (fun s -> baseline_out := Some s),
        "FILE save this run's numbers as a baseline" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/gccycle/main.exe -- GC-cycle kernels";
  let selected =
    if !only = [] then kernels
    else List.filter (fun (name, _, _, _) -> List.mem name !only) kernels
  in
  if selected = [] then failwith "no kernel matches --only";
  let baseline =
    match !baseline_in with Some f -> read_baseline f | None -> []
  in
  let results =
    List.map
      (fun (name, warmup, rounds, setup) ->
        let rounds =
          if !rounds_override > 0 then !rounds_override
          else if !quick then max 8 (rounds / 8)
          else rounds
        in
        let r = measure ~name ~warmup ~rounds (setup ()) in
        Printf.printf
          "%-18s %8.0f cycles/s  %8.2f us/cycle  %8.4f words/cycle%s\n%!"
          r.name r.cycles_per_sec r.us_per_cycle r.words_per_cycle
          (match List.assoc_opt r.name baseline with
          | Some (cps, _) when cps > 0.0 ->
              Printf.sprintf "  (%.2fx vs baseline)" (r.cycles_per_sec /. cps)
          | _ -> "");
        r)
      selected
  in
  (match !baseline_out with
  | Some file ->
      write_baseline file results;
      Printf.printf "wrote baseline %s\n%!" file
  | None -> ());
  match !out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (json_of_results ~label:!label ~baseline results);
      close_out oc;
      Printf.printf "wrote %s\n%!" file
