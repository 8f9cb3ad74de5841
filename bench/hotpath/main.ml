(* bench/hotpath: microbenchmarks of the mutator-visible simulation hot path.

   Each kernel drives one primitive of the simulation stack (VM op -> barrier
   -> cache hierarchy -> prefetcher) in a steady state (no simulated
   allocation, so no GC cycles start) and reports host-side throughput
   (ops/sec) and host-side allocation per op (minor plus direct major
   words, see [Hcsgc_util.Alloc_meter]).
   These are the numbers that bound how large the paper's experiments can
   get; the allocation figures back the hot-path allocation-regression test.

   Usage:
     dune exec bench/hotpath/main.exe --                 # default sizes
     dune exec bench/hotpath/main.exe -- --quick         # CI smoke sizes
     dune exec bench/hotpath/main.exe -- --ops 5000000
     dune exec bench/hotpath/main.exe -- --out BENCH_hotpath.json
     dune exec bench/hotpath/main.exe -- --only mixed-load-store *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Machine = Hcsgc_memsim.Machine
module Prefetcher = Hcsgc_memsim.Prefetcher
module Alloc_meter = Hcsgc_util.Alloc_meter

type result = {
  name : string;
  ops : int;
  ns_per_op : float;
  ops_per_sec : float;
  alloc_words_per_op : float;
}

(* Time [f ops] and measure host allocation.  One warmup run (1/8 of the
   measured size) brings the simulated caches and the host branch predictors
   to steady state before the timed run. *)
let measure ~name ~ops f =
  f (max 1 (ops / 8));
  let ovh = Alloc_meter.overhead_per_call () in
  let a0 = Alloc_meter.words () in
  let t0 = Unix.gettimeofday () in
  f ops;
  let t1 = Unix.gettimeofday () in
  let a1 = Alloc_meter.words () in
  let dt = t1 -. t0 in
  let words_per_op = (a1 -. a0 -. ovh) /. float_of_int ops in
  {
    name;
    ops;
    ns_per_op = dt *. 1e9 /. float_of_int ops;
    ops_per_sec = (if dt > 0.0 then float_of_int ops /. dt else 0.0);
    alloc_words_per_op = words_per_op;
  }

(* A VM with a small steady-state working set: [nobjs] objects, each with
   [nrefs] reference slots and [nwords] payload words, all rooted, and a
   reference ring through slot 0 so load_ref has non-null targets. *)
let mk_vm ?(nobjs = 64) ?(nrefs = 2) ?(nwords = 6) () =
  let vm = Vm.create ~config:Config.zgc ~max_heap:(64 * 1024 * 1024) () in
  let objs = Array.init nobjs (fun _ -> Vm.alloc vm ~nrefs ~nwords) in
  Array.iter (Vm.add_root vm) objs;
  Array.iteri
    (fun i o -> Vm.store_ref vm o 0 (Some objs.((i + 1) mod nobjs)))
    objs;
  (* Finish any in-flight cycle so the timed region is GC-quiescent. *)
  Vm.full_gc vm;
  (vm, objs)

let kernels =
  [
    ( "load-word",
      fun _ops ->
        let vm, objs = mk_vm () in
        let n = Array.length objs in
        fun k ->
          for i = 0 to k - 1 do
            ignore (Vm.load_word vm objs.(i mod n) (i land 3))
          done );
    ( "store-word",
      fun _ops ->
        let vm, objs = mk_vm () in
        let n = Array.length objs in
        fun k ->
          for i = 0 to k - 1 do
            Vm.store_word vm objs.(i mod n) (i land 3) i
          done );
    ( "mixed-load-store",
      (* The acceptance kernel: interleaved payload loads and stores over a
         multi-page working set, through the full barrier + cache stack. *)
      fun _ops ->
        let vm, objs = mk_vm ~nobjs:256 () in
        let n = Array.length objs in
        fun k ->
          for i = 0 to k - 1 do
            let o = objs.(i mod n) in
            if i land 1 = 0 then ignore (Vm.load_word vm o (i land 3))
            else Vm.store_word vm o (i land 3) i
          done );
    ( "touch",
      fun _ops ->
        let vm, objs = mk_vm () in
        let n = Array.length objs in
        fun k ->
          for i = 0 to k - 1 do
            Vm.touch vm objs.(i mod n)
          done );
    ( "barrier-load-ref",
      fun _ops ->
        let vm, objs = mk_vm () in
        let n = Array.length objs in
        fun k ->
          for i = 0 to k - 1 do
            ignore (Vm.load_ref vm objs.(i mod n) 0)
          done );
    ( "machine-load-seq",
      fun _ops ->
        let m = Machine.create ~cores:1 () in
        fun k ->
          for i = 0 to k - 1 do
            ignore (Machine.load m ~core:0 ((i * 64) land 0x3FFFFF))
          done );
    ( "machine-load-stride",
      (* A 4 KiB stride defeats the stream prefetcher: every access runs the
         full miss path. *)
      fun _ops ->
        let m = Machine.create ~cores:1 () in
        fun k ->
          for i = 0 to k - 1 do
            ignore (Machine.load m ~core:0 ((i * 4096) land 0xFFFFFF))
          done );
    ( "prefetcher-observe",
      fun _ops ->
        let pf = Prefetcher.create () in
        let buf = Array.make (Prefetcher.degree pf) 0 in
        fun k ->
          for i = 0 to k - 1 do
            (* Two interleaved sequences with a stride of +/-2 lines: no
               access extends a stream, so this measures only the no-match
               path (a new stream over the LRU slot).  Kept under its old
               name for comparison with earlier runs; see
               prefetcher-stream for the confirmed-stream path.  The
               descending sequence starts at 2^40 so that no op count
               reaches a negative line, which observe_into rejects. *)
            let line = if i land 1 = 0 then i else (1 lsl 40) - i in
            ignore (Prefetcher.observe_into pf line buf)
          done );
    ( "prefetcher-stream",
      fun _ops ->
        let pf = Prefetcher.create () in
        let buf = Array.make (Prefetcher.degree pf) 0 in
        fun k ->
          for i = 0 to k - 1 do
            (* Two interleaved +1/-1 streams, as mark/evacuation scans do:
               after the first accesses every one extends a confirmed
               stream and issues [degree] prefetches. *)
            let j = i lsr 1 in
            let line = if i land 1 = 0 then j else (1 lsl 40) - j in
            ignore (Prefetcher.observe_into pf line buf)
          done );
  ]

let json_of_results ~label results =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"benchmark\": %S,\n" "bench/hotpath");
  Buffer.add_string b (Printf.sprintf "  \"label\": %S,\n" label);
  Buffer.add_string b (Printf.sprintf "  \"ocaml\": %S,\n" Sys.ocaml_version);
  Buffer.add_string b
    (Printf.sprintf "  \"word_bytes\": %d,\n" (Sys.word_size / 8));
  Buffer.add_string b "  \"kernels\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"name\": %S, \"ops\": %d, \"ns_per_op\": %.2f, \
            \"ops_per_sec\": %.0f, \"alloc_words_per_op\": %.4f }%s\n"
           r.name r.ops r.ns_per_op r.ops_per_sec r.alloc_words_per_op
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let () =
  let ops = ref 2_000_000 in
  let out = ref None in
  let only = ref [] in
  let label = ref "current" in
  let spec =
    [
      ("--ops", Arg.Set_int ops, "N operations per kernel (default 2000000)");
      ("--quick", Arg.Unit (fun () -> ops := 200_000), " CI smoke sizes");
      ( "--only",
        Arg.String
          (fun s -> only := String.split_on_char ',' s |> List.map String.trim),
        "NAMES comma-separated kernel names" );
      ("--out", Arg.String (fun s -> out := Some s), "FILE write JSON here");
      ("--label", Arg.Set_string label, "S label stored in the JSON output");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/hotpath/main.exe -- simulation hot-path microbenchmarks";
  let selected =
    if !only = [] then kernels
    else
      List.filter (fun (name, _) -> List.mem name !only) kernels
  in
  if selected = [] then failwith "no kernel matches --only";
  let results =
    List.map
      (fun (name, setup) ->
        let f = setup !ops in
        let r = measure ~name ~ops:!ops f in
        Printf.printf "%-22s %10.0f ops/s  %7.1f ns/op  %8.4f alloc words/op\n%!"
          r.name r.ops_per_sec r.ns_per_op r.alloc_words_per_op;
        r)
      selected
  in
  match !out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (json_of_results ~label:!label results);
      close_out oc;
      Printf.printf "wrote %s\n%!" file
