(* bench/micro: host-side microbenchmarks of the mutator hot path (per op)
   and the GC cycle (per cycle); the kernels live in kernels.ml.

   Each kernel runs warm-up rounds, then timed rounds; only a round's
   [step] is timed and metered (Hcsgc_util.Alloc_meter).  Reported per op
   or cycle: throughput, host time, host words allocated, and the
   simulated GC cycles the kernel's collector completed.  Host time is
   also given per round, as the median, minimum and interquartile range
   of the rounds' ns per op or cycle, so one run shows its own spread.

   Usage:
     dune exec --profile release bench/micro/main.exe -- [--quick]
       [--only NAME,...] [--out FILE.json] [--label S] *)

module Kernels = Bench_micro.Kernels
module Alloc_meter = Hcsgc_util.Alloc_meter
module Gc_stats = Hcsgc_core.Gc_stats
module Collector = Hcsgc_core.Collector
module Descriptive = Hcsgc_stats.Descriptive

type result = {
  name : string;
  unit_ : Kernels.unit_;
  count : int;  (* measured ops or cycles *)
  per_sec : float;
  ns_per_unit : float;
  (* Per-round ns per op or cycle: median, minimum, Q3 - Q1. *)
  ns_median : float;
  ns_min : float;
  ns_iqr : float;
  words_per_unit : float;
  sim_gc_cycles : int;
}

let measure ~quick (k : Kernels.t) =
  let rounds = if quick then max 1 (k.rounds / 8) else k.rounds in
  let s = k.start ~div:1 in
  for r = 1 to k.warmup do
    s.mutate r;
    s.step ()
  done;
  let ovh = Alloc_meter.overhead_per_call () in
  let words = ref 0.0 and secs = ref 0.0 in
  let round_ns = Array.make rounds 0.0 in
  for r = 0 to rounds - 1 do
    s.mutate (k.warmup + 1 + r);
    let t0 = Unix.gettimeofday () in
    let a0 = Alloc_meter.words () in
    s.step ();
    let a1 = Alloc_meter.words () in
    let t1 = Unix.gettimeofday () in
    words := !words +. (a1 -. a0 -. ovh);
    secs := !secs +. (t1 -. t0);
    round_ns.(r) <- (t1 -. t0) *. 1e9 /. float_of_int s.per_step
  done;
  let count = rounds * s.per_step in
  let n = float_of_int count in
  let q = Descriptive.quantile round_ns in
  {
    name = k.name;
    unit_ = k.unit_;
    count;
    per_sec = (if !secs > 0.0 then n /. !secs else 0.0);
    ns_per_unit = !secs *. 1e9 /. n;
    ns_median = q 0.5;
    ns_min = Descriptive.min round_ns;
    ns_iqr = q 0.75 -. q 0.25;
    words_per_unit = !words /. n;
    sim_gc_cycles =
      (match s.col with
      | Some col -> Gc_stats.cycles (Collector.stats col)
      | None -> 0);
  }

let json ~label results =
  let kernel r =
    Printf.sprintf
      "    { \"name\": %S, \"unit\": %S, \"count\": %d, \"per_sec\": %.0f, \
       \"ns_per_unit\": %.2f, \"ns_median\": %.2f, \"ns_min\": %.2f, \
       \"ns_iqr\": %.2f, \"words_per_unit\": %.4f, \"sim_gc_cycles\": %d }"
      r.name
      (Kernels.unit_name r.unit_)
      r.count r.per_sec r.ns_per_unit r.ns_median r.ns_min r.ns_iqr
      r.words_per_unit r.sim_gc_cycles
  in
  Printf.sprintf
    "{\n\
    \  \"benchmark\": \"bench/micro\",\n\
    \  \"label\": %S,\n\
    \  \"ocaml\": %S,\n\
    \  \"word_bytes\": %d,\n\
    \  \"kernels\": [\n\
     %s\n\
    \  ]\n\
     }\n"
    label Sys.ocaml_version (Sys.word_size / 8)
    (String.concat ",\n" (List.map kernel results))

let () =
  let quick = ref false in
  let selected = ref Kernels.kernels in
  let out = ref None in
  let label = ref "current" in
  let spec =
    [
      ("--quick", Arg.Set quick, " CI smoke sizes (measured rounds / 8)");
      ( "--only",
        Arg.String
          (fun s ->
            match Kernels.select s with
            | Ok ks -> selected := ks
            | Error msg -> raise (Arg.Bad msg)),
        "NAMES comma-separated kernel names" );
      ("--out", Arg.String (fun s -> out := Some s), "FILE write JSON here");
      ("--label", Arg.Set_string label, "S label stored in the JSON output");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/micro/main.exe -- hot-path and GC-cycle microbenchmarks";
  let results =
    List.map
      (fun k ->
        let r = measure ~quick:!quick k in
        let u = Kernels.unit_name r.unit_ in
        Printf.printf
          "%-20s %12.0f %ss/s %12.1f ns/%s (rounds: median %.1f, min %.1f, \
           IQR %.1f) %11.4f words/%s %5d sim cycles\n%!"
          r.name r.per_sec u r.ns_per_unit u r.ns_median r.ns_min r.ns_iqr
          r.words_per_unit u r.sim_gc_cycles;
        r)
      !selected
  in
  match !out with
  | None -> ()
  | Some file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc (json ~label:!label results));
      Printf.printf "wrote %s\n%!" file
