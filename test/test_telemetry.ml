(* Tests for hcsgc.telemetry: the recorder, the analyzer's percentile/MMU
   math (hand-computed fixtures), exporter output shape — including a
   strict mini JSON parser over the Chrome trace — and the two system
   guarantees: telemetry charges zero simulated cycles, and profiled
   parallel sweeps are byte-identical to sequential ones. *)

module Recorder = Hcsgc_telemetry.Recorder
module Analyzer = Hcsgc_telemetry.Analyzer
module Chrome_trace = Hcsgc_telemetry.Chrome_trace
module Csv_export = Hcsgc_telemetry.Csv_export
module Summary = Hcsgc_telemetry.Summary
module Runner = Hcsgc_experiments.Runner
module Fig_synthetic = Hcsgc_experiments.Fig_synthetic
module Fig_tier = Hcsgc_experiments.Fig_tier
module Pool = Hcsgc_exec.Pool
module Vm = Hcsgc_runtime.Vm
module Gc_log = Hcsgc_core.Gc_log
module Alloc_meter = Hcsgc_util.Alloc_meter

let check = Alcotest.check
let case = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* A strict (no trailing commas, fully consumed input) JSON parser —
   just enough to shape-check the Chrome trace without a JSON library.  *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let bad msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos >= n then bad "unexpected end" else s.[!pos] in
    let advance () = incr pos in
    let rec skip_ws () =
      if !pos < n then
        match s.[!pos] with
        | ' ' | '\t' | '\n' | '\r' ->
            advance ();
            skip_ws ()
        | _ -> ()
    in
    let expect c =
      if peek () <> c then bad (Printf.sprintf "expected '%c'" c);
      advance ()
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' ->
            advance ();
            Buffer.contents buf
        | '\\' ->
            advance ();
            (match peek () with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if !pos + 4 >= n then bad "truncated \\u escape";
                String.iter
                  (function
                    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                    | _ -> bad "bad \\u escape")
                  (String.sub s (!pos + 1) 4);
                pos := !pos + 4;
                Buffer.add_char buf '?' (* codepoint value irrelevant here *)
            | _ -> bad "bad escape");
            advance ();
            go ()
        | c when Char.code c < 0x20 -> bad "raw control character in string"
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let numeric = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && numeric s.[!pos] do
        advance ()
      done;
      if !pos = start then bad "expected a value";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> bad "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then (
            advance ();
            Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> bad "expected ',' or '}'"
            in
            members []
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then (
            advance ();
            Arr [])
          else
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  elements (v :: acc)
              | ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> bad "expected ',' or ']'"
            in
            elements []
      | '"' -> Str (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then bad "trailing garbage";
    v

  let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let sample0 =
  {
    Recorder.wall = 0;
    heap_used = 0;
    hot_bytes = 0;
    loads = 0;
    stores = 0;
    l1_misses = 0;
    l2_misses = 0;
    llc_misses = 0;
    barrier_fast = 0;
    barrier_slow = 0;
    reloc_mutator = 0;
    reloc_gc = 0;
    reloc_bytes = 0;
    far_loads = 0;
  }

(* A tiny but representative synthetic job: GC cycles, lazy relocation
   and phases all occur, yet it runs in well under a second. *)
let small_job ?(config_id = 4) () =
  let exp = Fig_synthetic.experiment ~phases:2 ~scale:16 () in
  { Runner.exp; config_id; run = 0 }

(* ------------------------------------------------------------------ *)
(* Recorder                                                            *)
(* ------------------------------------------------------------------ *)

let recorder_span_nesting () =
  let r = Recorder.create () in
  Recorder.begin_span r Recorder.Gc ~name:"outer" ~wall:0;
  Recorder.begin_span r Recorder.Gc ~name:"inner" ~wall:10;
  Recorder.end_span r Recorder.Gc ~wall:20;
  Recorder.end_span r Recorder.Gc ~wall:30;
  match Recorder.spans r with
  | [ inner; outer ] ->
      check Alcotest.string "inner closes first" "inner" inner.Recorder.name;
      check Alcotest.int "inner start" 10 inner.Recorder.start;
      check Alcotest.int "inner stop" 20 inner.Recorder.stop;
      check Alcotest.string "outer closes last" "outer" outer.Recorder.name;
      check Alcotest.int "outer stop" 30 outer.Recorder.stop
  | spans ->
      Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let recorder_ring_drops () =
  let r = Recorder.create ~span_capacity:2 ~sample_capacity:2 () in
  for i = 1 to 5 do
    Recorder.complete_span r Recorder.Gc ~name:(string_of_int i)
      ~wall:(i * 10) ~dur:1;
    Recorder.sample r { sample0 with Recorder.wall = i }
  done;
  check Alcotest.int "spans dropped" 3 (Recorder.dropped_spans r);
  check Alcotest.int "samples dropped" 3 (Recorder.dropped_samples r);
  check
    (Alcotest.list Alcotest.string)
    "newest spans survive" [ "4"; "5" ]
    (List.map (fun s -> s.Recorder.name) (Recorder.spans r));
  Recorder.clear r;
  check Alcotest.int "cleared" 0 (Recorder.dropped_spans r)

let recorder_close_all () =
  let r = Recorder.create () in
  Recorder.begin_span r (Recorder.Mutator 0) ~name:"phase" ~wall:0;
  Recorder.begin_span r Recorder.Gc ~name:"GC(1)" ~wall:5;
  Recorder.close_all r ~wall:50;
  check Alcotest.int "both closed" 2 (List.length (Recorder.spans r));
  List.iter
    (fun s -> check Alcotest.int "closed at the final wall" 50 s.Recorder.stop)
    (Recorder.spans r)

let recorder_gc_event_translation () =
  let r = Recorder.create () in
  Recorder.on_gc_event r
    (Gc_log.Cycle_start { cycle = 1; wall = 100; heap_used = 4096 });
  Recorder.on_gc_event r
    (Gc_log.Pause { cycle = 1; pause = Gc_log.STW1; cost = 20; wall = 100 });
  Recorder.on_gc_event r
    (Gc_log.Mark_end { cycle = 1; marked_objects = 7; wall = 300 });
  Recorder.on_gc_event r
    (Gc_log.Pause { cycle = 1; pause = Gc_log.STW2; cost = 20; wall = 320 });
  Recorder.on_gc_event r
    (Gc_log.Ec_selected { cycle = 1; small = 3; medium = 0; wall = 340 });
  Recorder.on_gc_event r
    (Gc_log.Pause { cycle = 1; pause = Gc_log.STW3; cost = 20; wall = 360 });
  Recorder.on_gc_event r
    (Gc_log.Cycle_end { cycle = 1; wall = 500; heap_used = 2048 });
  let names = List.map (fun s -> s.Recorder.name) (Recorder.spans r) in
  List.iter
    (fun expected ->
      check Alcotest.bool (expected ^ " present") true
        (List.mem expected names))
    [
      "GC(1)"; "Pause Mark Start"; "Concurrent Mark"; "Concurrent Mark end";
      "Pause Mark End"; "Relocation Set"; "Pause Relocate Start";
      "Concurrent Relocate";
    ];
  (* The cycle slice spans the whole cycle and closes last. *)
  let gc1 =
    List.find (fun s -> s.Recorder.name = "GC(1)") (Recorder.spans r)
  in
  check Alcotest.int "cycle start" 100 gc1.Recorder.start;
  check Alcotest.int "cycle stop" 500 gc1.Recorder.stop;
  (* Pauses are slices of exactly their cost. *)
  List.iter
    (fun s ->
      if String.length s.Recorder.name >= 6
         && String.sub s.Recorder.name 0 6 = "Pause " then
        check Alcotest.int (s.Recorder.name ^ " duration") 20
          (s.Recorder.stop - s.Recorder.start))
    (Recorder.spans r)

(* The span ring against a naive model: a list of every closed span and
   per-track stacks of open ones.  Capacities from 1 to 600 with up to
   1,500 operations cross the ring's doubling (256 -> 512) and its wrap;
   names include "Pause " ones so [pause_intervals] has work, and 0-6 args
   cross the inline/overflow boundary at 4. *)
type op =
  | Begin of Recorder.track * string * int * (string * int) list
  | End of Recorder.track * int * (string * int) list
  | End_named of Recorder.track * string * int * (string * int) list
  | Complete of Recorder.track * string * int * int * (string * int) list
  | Instant of Recorder.track * string * int * (string * int) list
  | Close_all of int
  | Clear

let apply r = function
  | Begin (track, name, wall, args) ->
      Recorder.begin_span r ~args track ~name ~wall
  | End (track, wall, args) -> Recorder.end_span r ~args track ~wall
  | End_named (track, name, wall, args) ->
      Recorder.end_named r ~args track ~name ~wall
  | Complete (track, name, wall, dur, args) ->
      Recorder.complete_span r ~args track ~name ~wall ~dur
  | Instant (track, name, wall, args) ->
      Recorder.instant r ~args track ~name ~wall
  | Close_all wall -> Recorder.close_all r ~wall
  | Clear -> Recorder.clear r

module Model = struct
  type opened = string * int * (string * int) list  (* name, start, args *)

  type t = {
    mutable closed : Recorder.span list;  (* newest first, never evicted *)
    mutable stacks : (Recorder.track * opened list) list;
  }

  let code = function Recorder.Gc -> -1 | Recorder.Mutator m -> m

  let stack m track =
    Option.value ~default:[] (List.assoc_opt track m.stacks)

  let set_stack m track st =
    m.stacks <- (track, st) :: List.remove_assoc track m.stacks

  let record m track kind name start stop args =
    m.closed <- { Recorder.track; kind; name; start; stop; args } :: m.closed

  let close m track wall extra (name, start, args) =
    record m track Recorder.Slice name start (max start wall) (args @ extra)

  let apply m = function
    | Begin (track, name, wall, args) ->
        set_stack m track ((name, wall, args) :: stack m track)
    | End (track, wall, args) -> (
        match stack m track with
        | [] -> ()
        | o :: rest ->
            set_stack m track rest;
            close m track wall args o)
    | End_named (track, name, wall, args) ->
        let st = stack m track in
        if List.exists (fun (n, _, _) -> n = name) st then begin
          let rec pop = function
            | [] -> []
            | ((n, _, _) as o) :: rest ->
                if n = name then (close m track wall args o; rest)
                else (close m track wall [] o; pop rest)
          in
          set_stack m track (pop st)
        end
    | Complete (track, name, wall, dur, args) ->
        record m track Recorder.Slice name wall (wall + max 0 dur) args
    | Instant (track, name, wall, args) ->
        record m track Recorder.Instant name wall wall args
    | Close_all wall ->
        List.map fst m.stacks
        |> List.sort (fun a b -> Int.compare (code a) (code b))
        |> List.iter (fun track ->
               List.iter (close m track wall []) (stack m track);
               set_stack m track [])
    | Clear ->
        m.closed <- [];
        m.stacks <- []

  (* The spans a ring of [capacity] keeps, oldest first, and the drops. *)
  let survivors m ~capacity =
    let n = List.length m.closed in
    ( List.rev (List.filteri (fun i _ -> i < capacity) m.closed),
      max 0 (n - capacity) )
end

let gen_ops =
  let open QCheck.Gen in
  let track =
    frequency
      [ (2, return Recorder.Gc);
        (3, map (fun m -> Recorder.Mutator m) (int_bound 2)) ]
  in
  let name =
    oneofl
      [ "GC(1)"; "GC(2)"; "Pause Mark Start"; "Pause Relocate"; "phase";
        "req:get" ]
  in
  let wall = int_bound 1000 in
  let args =
    list_size (int_bound 6)
      (pair (oneofl [ "a"; "b"; "wait"; "latency" ]) (int_range (-5) 99))
  in
  let op ~clears =
    frequency
      ([ (40, map4 (fun t n w a -> Begin (t, n, w, a)) track name wall args);
         (30, map3 (fun t w a -> End (t, w, a)) track wall args);
         (20, map4 (fun t n w a -> End_named (t, n, w, a)) track name wall args);
         ( 60,
           map4
             (fun (t, n) w d a -> Complete (t, n, w, d, a))
             (pair track name) wall (int_range (-3) 50) args );
         (30, map4 (fun t n w a -> Instant (t, n, w, a)) track name wall args);
         (4, map (fun w -> Close_all w) wall) ]
      @ if clears then [ (1, return Clear) ] else [])
  in
  pair
    (oneof [ int_range 1 10; int_range 200 600 ])
    (bool >>= fun clears -> list_size (int_bound 1500) (op ~clears))

let pp_op op =
  let tr = function
    | Recorder.Gc -> "gc"
    | Recorder.Mutator m -> Printf.sprintf "mut%d" m
  in
  let pp = Printf.sprintf in
  match op with
  | Begin (t, n, w, a) -> pp "begin %s %s@%d/%d" (tr t) n w (List.length a)
  | End (t, w, a) -> pp "end %s@%d/%d" (tr t) w (List.length a)
  | End_named (t, n, w, a) ->
      pp "end_named %s %s@%d/%d" (tr t) n w (List.length a)
  | Complete (t, n, w, d, a) ->
      pp "complete %s %s@%d+%d/%d" (tr t) n w d (List.length a)
  | Instant (t, n, w, a) -> pp "instant %s %s@%d/%d" (tr t) n w (List.length a)
  | Close_all w -> pp "close_all@%d" w
  | Clear -> "clear"

let prop_ring_matches_model =
  QCheck.Test.make ~name:"recorder: span ring = list model" ~count:200
    (QCheck.make gen_ops
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat "; " (List.map pp_op ops)))
       ~shrink:QCheck.Shrink.(pair nil list))
    (fun (capacity, ops) ->
      let r = Recorder.create ~span_capacity:capacity () in
      let m = { Model.closed = []; stacks = [] } in
      List.iter
        (fun op ->
          apply r op;
          Model.apply m op)
        ops;
      let spans, dropped = Model.survivors m ~capacity in
      let tracks =
        List.map (fun (s : Recorder.span) -> s.Recorder.track) spans
        |> List.sort_uniq (fun a b -> Int.compare (Model.code a) (Model.code b))
      in
      let pauses =
        List.filter_map
          (fun (s : Recorder.span) ->
            match (s.Recorder.track, s.Recorder.kind) with
            | Recorder.Gc, Recorder.Slice
              when String.starts_with ~prefix:"Pause " s.Recorder.name ->
                Some (s.Recorder.start, s.Recorder.stop)
            | _ -> None)
          spans
      in
      let last_wall =
        List.fold_left
          (fun acc (s : Recorder.span) -> max acc s.Recorder.stop)
          0 spans
      in
      (* The default fold hands out no args. *)
      let bare =
        Recorder.fold_spans r ~init:[]
          (fun acc track kind ~name ~start ~stop ~args ->
            { Recorder.track; kind; name; start; stop; args } :: acc)
        |> List.rev
      in
      Recorder.spans r = spans
      && bare
         = List.map (fun (s : Recorder.span) -> { s with Recorder.args = [] })
             spans
      && Recorder.dropped_spans r = dropped
      && Recorder.tracks r = tracks
      && Analyzer.pause_intervals r = pauses
      && Analyzer.last_wall r = last_wall)

(* Recording an arg-less span into a full ring writes its fields in place:
   no record, no option, no list. *)
let recorder_full_ring_allocates_nothing () =
  let r = Recorder.create ~span_capacity:1024 () in
  for i = 0 to 4095 do
    Recorder.complete_span r Recorder.Gc ~name:"Pause Mark Start" ~wall:i
      ~dur:1
  done;
  let ovh = Alloc_meter.overhead_per_call () in
  let a0 = Alloc_meter.words () in
  for i = 0 to 99_999 do
    Recorder.complete_span r (Recorder.Mutator 0) ~name:"req:get" ~wall:i
      ~dur:1
  done;
  let words = Alloc_meter.words () -. a0 -. ovh in
  check (Alcotest.float 0.0) "words for 100k spans" 0.0 words;
  check Alcotest.int "all 104,096 spans past the first 1,024 dropped"
    (4096 + 100_000 - 1024)
    (Recorder.dropped_spans r)

(* ------------------------------------------------------------------ *)
(* Analyzer: percentiles and MMU on hand-computed fixtures             *)
(* ------------------------------------------------------------------ *)

let percentile_fixtures () =
  check Alcotest.int "p50 of 4" 20
    (Analyzer.percentile [ 10; 20; 30; 40 ] ~pct:50.0);
  check Alcotest.int "p95 of 4" 40
    (Analyzer.percentile [ 10; 20; 30; 40 ] ~pct:95.0);
  let hundred = List.init 100 (fun i -> i + 1) in
  check Alcotest.int "p50 of 1..100" 50 (Analyzer.percentile hundred ~pct:50.0);
  check Alcotest.int "p95 of 1..100" 95 (Analyzer.percentile hundred ~pct:95.0);
  check Alcotest.int "p99 of 1..100" 99 (Analyzer.percentile hundred ~pct:99.0);
  check Alcotest.int "p100 of 1..100" 100
    (Analyzer.percentile hundred ~pct:100.0);
  check Alcotest.int "order-independent" 95
    (Analyzer.percentile (List.rev hundred) ~pct:95.0);
  check Alcotest.bool "empty list rejected" true
    (match Analyzer.percentile [] ~pct:50.0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check Alcotest.bool "empty sorted array rejected" true
    (match Analyzer.percentile_sorted [||] ~pct:50.0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Nearest-rank p99.9: rank = ceil(99.9/100 * n), so every sample short of
   1000 yields the maximum, and exactly at n = 10000 the rank drops to
   9990 — the boundary the serving-tier SLO report sits on. *)
let p999_fixtures () =
  check Alcotest.int "p99.9 of 5 samples = max" 50
    (Analyzer.percentile [ 10; 20; 30; 40; 50 ] ~pct:99.9);
  check Alcotest.int "p99.9 of 999 = max" 999
    (Analyzer.percentile (List.init 999 (fun i -> i + 1)) ~pct:99.9);
  check Alcotest.int "p99.9 of 1000 = rank 999" 999
    (Analyzer.percentile (List.init 1_000 (fun i -> i + 1)) ~pct:99.9);
  check Alcotest.int "p99.9 of 10000 = rank 9990" 9_990
    (Analyzer.percentile (List.init 10_000 (fun i -> i + 1)) ~pct:99.9);
  check Alcotest.int "p99.9 order-independent" 9_990
    (Analyzer.percentile (List.init 10_000 (fun i -> 10_000 - i)) ~pct:99.9)

let overlap_fixtures () =
  let ov window intervals = Analyzer.overlap ~window intervals in
  check Alcotest.int "disjoint" 0 (ov (0, 10) [ (20, 30) ]);
  check Alcotest.int "touching edges do not overlap" 0 (ov (0, 10) [ (10, 20) ]);
  check Alcotest.int "interval inside window" 5 (ov (0, 100) [ (10, 15) ]);
  check Alcotest.int "window inside interval" 10 (ov (20, 30) [ (0, 100) ]);
  check Alcotest.int "partial left" 5 (ov (0, 15) [ (10, 30) ]);
  check Alcotest.int "partial right" 5 (ov (25, 40) [ (10, 30) ]);
  check Alcotest.int "several intervals sum" 15
    (ov (0, 100) [ (10, 15); (20, 30) ]);
  check Alcotest.int "duplicates coalesce" 5 (ov (0, 100) [ (10, 15); (10, 15) ]);
  check Alcotest.int "overlapping intervals coalesce" 15
    (ov (0, 100) [ (10, 20); (15, 25) ]);
  check Alcotest.int "sorted form over coalesced intervals" 8
    (Analyzer.overlap_sorted [| (10, 20); (30, 35) |] ~window:(15, 33));
  check Alcotest.int "empty interval dropped" 0 (ov (0, 100) [ (50, 50) ]);
  check Alcotest.int "inverted window" 0 (ov (10, 10) [ (0, 100) ]);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "coalesce normal form"
    [ (0, 25); (40, 50) ]
    (Analyzer.coalesce [ (15, 25); (0, 10); (10, 20); (40, 50); (45, 45) ])

(* The sorted-array forms the SLO report reads against the list forms they
   replace.  Intervals and windows are small and dense over [0, 100], so
   overlapping, touching, empty and inverted ones are all common. *)
let prop_overlap_sorted_matches_overlap =
  QCheck.Test.make ~name:"analyzer: overlap_sorted = overlap" ~count:500
    QCheck.(
      pair
        (small_list (pair (int_bound 100) (int_bound 30)))
        (pair (int_bound 100) (int_range (-20) 60)))
    (fun (raw, (w0, width)) ->
      (* Widths down to 0 keep empty intervals in play; negative window
         widths give inverted windows. *)
      let ivs = List.map (fun (a, len) -> (a, a + len)) raw in
      let window = (w0, w0 + width) in
      Analyzer.overlap_sorted (Array.of_list (Analyzer.coalesce ivs)) ~window
      = Analyzer.overlap ~window ivs)

let prop_percentile_sorted_matches_percentile =
  QCheck.Test.make ~name:"analyzer: percentile_sorted = percentile"
    ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 300) (int_range (-50) 1000))
        (oneofl [ 0.1; 1.0; 50.0; 95.0; 99.0; 99.9; 100.0 ]))
    (fun (xs, pct) ->
      let arr = Array.of_list xs in
      Array.sort Int.compare arr;
      Analyzer.percentile_sorted arr ~pct = Analyzer.percentile xs ~pct)

let close_to msg expected actual =
  if Float.abs (expected -. actual) > 1e-9 then
    Alcotest.failf "%s: expected %.12f, got %.12f" msg expected actual

let mmu_fixtures () =
  let pauses = [ (10, 20) ] in
  close_to "w=50, one 10c pause in 100c" 0.8
    (Analyzer.mmu ~window:50 ~total:100 ~pauses);
  close_to "w=10 fully swallowed by the pause" 0.0
    (Analyzer.mmu ~window:10 ~total:100 ~pauses);
  close_to "w=total degenerates to overall utilisation" 0.9
    (Analyzer.mmu ~window:100 ~total:100 ~pauses);
  close_to "no pauses" 1.0 (Analyzer.mmu ~window:10 ~total:100 ~pauses:[]);
  close_to "window larger than the run clamps" 0.9
    (Analyzer.mmu ~window:1000 ~total:100 ~pauses);
  (* Two pauses: a 30-cycle window can capture both. *)
  close_to "worst window spans both pauses" (1.0 /. 3.0)
    (Analyzer.mmu ~window:30 ~total:100 ~pauses:[ (10, 20); (30, 40) ]);
  check Alcotest.bool "window <= 0 rejected" true
    (match Analyzer.mmu ~window:0 ~total:100 ~pauses with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* Coincident/overlapping pause stamps are coalesced, not double-counted
     (simulated pauses can share a wall stamp): never below 0. *)
  close_to "duplicate pauses count once" 0.8
    (Analyzer.mmu ~window:50 ~total:100 ~pauses:[ (10, 20); (10, 20) ]);
  close_to "overlapping pauses coalesce" 0.7
    (Analyzer.mmu ~window:50 ~total:100 ~pauses:[ (10, 20); (15, 25) ]);
  close_to "window inside a long pause floors at 0" 0.0
    (Analyzer.mmu ~window:5 ~total:100 ~pauses:[ (10, 20); (10, 20) ])

let pause_stats_of_recorder () =
  let r = Recorder.create () in
  Recorder.complete_span r Recorder.Gc ~name:"GC(1)" ~wall:0 ~dur:1000;
  List.iteri
    (fun i dur ->
      Recorder.complete_span r Recorder.Gc ~name:"Pause Mark Start"
        ~wall:(100 * (i + 1)) ~dur)
    [ 10; 30; 20; 40 ];
  (* A mutator span is not a pause even if named like one. *)
  Recorder.complete_span r (Recorder.Mutator 0) ~name:"Pause impostor" ~wall:0
    ~dur:999;
  let st = Analyzer.pause_stats r in
  check Alcotest.int "count" 4 st.Analyzer.count;
  check Alcotest.int "total" 100 st.Analyzer.total;
  check Alcotest.int "p50" 20 st.Analyzer.p50;
  check Alcotest.int "p95" 40 st.Analyzer.p95;
  check Alcotest.int "max" 40 st.Analyzer.max;
  (* The pauses are >50 cycles apart, so the worst 50-cycle window contains
     exactly the longest pause (40 cycles): MMU = (50-40)/50. *)
  close_to "mmu_of agrees with mmu on the recorded pauses" 0.2
    (Analyzer.mmu_of r ~window:50)

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let golden_recorder () =
  let r = Recorder.create () in
  Recorder.begin_span r Recorder.Gc ~args:[ ("heap", 64) ] ~name:"GC(1)"
    ~wall:0;
  Recorder.complete_span r Recorder.Gc ~name:"Pause Mark Start" ~wall:10
    ~dur:5;
  Recorder.instant r (Recorder.Mutator 0) ~name:"marker" ~wall:12;
  Recorder.end_span r Recorder.Gc ~wall:100;
  Recorder.sample r
    { sample0 with Recorder.wall = 50; heap_used = 1024; hot_bytes = 64 };
  r

let chrome_trace_golden () =
  let expected =
    String.concat "\n"
      [
        {|{"displayTimeUnit":"ms","traceEvents":[|};
        {|{"ph":"M","ts":0,"pid":0,"tid":0,"name":"process_name","args":{"name":"hcsgc"}},|};
        {|{"ph":"M","ts":0,"pid":0,"tid":0,"name":"thread_name","args":{"name":"GC"}},|};
        {|{"ph":"M","ts":0,"pid":0,"tid":1,"name":"thread_name","args":{"name":"mutator 0"}},|};
        {|{"ph":"X","ts":10,"dur":5,"pid":0,"tid":0,"name":"Pause Mark Start","args":{}},|};
        {|{"ph":"i","ts":12,"pid":0,"tid":1,"s":"t","name":"marker","args":{}},|};
        {|{"ph":"X","ts":0,"dur":100,"pid":0,"tid":0,"name":"GC(1)","args":{"heap":64}},|};
        {|{"ph":"C","ts":50,"pid":0,"tid":0,"name":"heap","args":{"used":1024,"hot":64}}|};
        {|]}|};
        "";
      ]
  in
  check Alcotest.string "exact trace JSON" expected
    (Chrome_trace.to_string (golden_recorder ()))

let trace_events_of json =
  match Json.mem "traceEvents" json with
  | Some (Json.Arr events) -> events
  | _ -> Alcotest.fail "traceEvents array missing"

let required_keys_of_every_event events =
  List.iter
    (fun ev ->
      let str k =
        match Json.mem k ev with
        | Some (Json.Str s) -> s
        | _ -> Alcotest.failf "event missing string key %S" k
      in
      let num k =
        match Json.mem k ev with
        | Some (Json.Num f) -> f
        | _ -> Alcotest.failf "event missing numeric key %S" k
      in
      let ph = str "ph" in
      check Alcotest.bool "known phase" true
        (List.mem ph [ "X"; "i"; "M"; "C" ]);
      check Alcotest.bool "ts >= 0" true (num "ts" >= 0.0);
      check Alcotest.bool "pid 0" true (num "pid" = 0.0);
      check Alcotest.bool "tid >= 0" true (num "tid" >= 0.0);
      ignore (str "name");
      (match ph with
      | "X" -> check Alcotest.bool "dur >= 0" true (num "dur" >= 0.0)
      | "i" -> check Alcotest.string "instant scope" "t" (str "s")
      | _ -> ());
      match Json.mem "args" ev with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.fail "event missing args object")
    events

let chrome_trace_shape_of_real_run () =
  let _, recorder = Runner.profile ~sample_interval:20_000 (small_job ()) in
  let json =
    match Json.parse (Chrome_trace.to_string recorder) with
    | json -> json
    | exception Json.Bad msg -> Alcotest.failf "trace is not valid JSON: %s" msg
  in
  let events = trace_events_of json in
  check Alcotest.bool "non-trivial trace" true (List.length events > 10);
  required_keys_of_every_event events;
  (* Exactly one process_name record, and a thread_name per track. *)
  let named n =
    List.length
      (List.filter (fun ev -> Json.mem "name" ev = Some (Json.Str n)) events)
  in
  check Alcotest.int "one process_name" 1 (named "process_name");
  check Alcotest.int "a thread_name per track"
    (List.length (Recorder.tracks recorder))
    (named "thread_name")

let csv_row_per_sample () =
  let _, recorder = Runner.profile ~sample_interval:20_000 (small_job ()) in
  let csv = Csv_export.to_string recorder in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  check Alcotest.int "header + one row per sample"
    (1 + List.length (Recorder.samples recorder))
    (List.length lines);
  check Alcotest.string "header line" Csv_export.header (List.hd lines);
  let columns = List.length (String.split_on_char ',' Csv_export.header) in
  List.iter
    (fun line ->
      check Alcotest.int "column count" columns
        (List.length (String.split_on_char ',' line)))
    lines

let summary_mentions_everything () =
  let _, recorder = Runner.profile ~sample_interval:20_000 (small_job ()) in
  let text = Summary.to_string recorder in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i =
      i + n <= h && (String.sub text i n = needle || go (i + 1))
    in
    check Alcotest.bool (Printf.sprintf "summary mentions %S" needle) true
      (go 0)
  in
  List.iter contains
    [ "STW pauses"; "p50"; "p99"; "MMU"; "relocation attribution"; "GC(1)" ]

(* ------------------------------------------------------------------ *)
(* System guarantees                                                   *)
(* ------------------------------------------------------------------ *)

(* The acceptance-critical property: an instrumented run's simulated clock
   (and every other metric) is identical to an uninstrumented run of the
   same job, i.e. recording costs zero simulated cycles. *)
let telemetry_costs_zero_cycles () =
  let plain = Runner.execute (small_job ()) in
  let profiled, recorder = Runner.profile ~sample_interval:10_000 (small_job ()) in
  check Alcotest.bool "recorder saw activity" true
    (List.length (Recorder.spans recorder) > 0
    && List.length (Recorder.samples recorder) > 1);
  check (Alcotest.float 0.0) "identical wall cycles" plain.Runner.wall
    profiled.Runner.wall;
  check (Alcotest.float 0.0) "identical loads" plain.Runner.loads
    profiled.Runner.loads;
  check (Alcotest.float 0.0) "identical LLC misses" plain.Runner.llc_misses
    profiled.Runner.llc_misses;
  check Alcotest.int "identical GC cycle count" plain.Runner.gc_cycle_count
    profiled.Runner.gc_cycle_count;
  check Alcotest.bool "identical heap samples" true
    (plain.Runner.heap_samples = profiled.Runner.heap_samples)

(* Domain-local recorders: fanning profiled jobs across a pool changes
   nothing about any job's trace, byte for byte. *)
let parallel_traces_deterministic () =
  let exp = Fig_synthetic.experiment ~scale:16 () in
  let jobs =
    Array.of_list (Runner.jobs_of ~config_ids:[ 0; 4; 9; 16 ] ~runs:1 exp)
  in
  let n = Array.length jobs in
  let trace job =
    let _, recorder = Runner.profile ~sample_interval:25_000 job in
    Chrome_trace.to_string recorder
  in
  (* Sequential in job order; parallel submitted in reverse. *)
  let sequential =
    Pool.with_pool ~jobs:1 (fun pool ->
        Pool.map_array_in_order pool ~order:(Array.init n Fun.id) trace jobs)
  in
  let parallel =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map_array_in_order pool
          ~order:(Array.init n (fun i -> n - 1 - i))
          trace jobs)
  in
  check Alcotest.int "same job count" (Array.length sequential)
    (Array.length parallel);
  Array.iteri
    (fun i s ->
      check Alcotest.bool
        (Printf.sprintf "job %d trace byte-identical" i)
        true (String.equal s parallel.(i)))
    sequential

let attribution_of_real_run () =
  let metrics, recorder = Runner.profile ~sample_interval:20_000 (small_job ()) in
  let points = Analyzer.attribution recorder in
  check Alcotest.int "one point per GC cycle" metrics.Runner.gc_cycle_count
    (List.length points);
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) ->
        a.Analyzer.cycle < b.Analyzer.cycle && strictly_increasing rest
    | _ -> true
  in
  check Alcotest.bool "cycles strictly increase" true
    (strictly_increasing points);
  List.iter
    (fun p ->
      check Alcotest.bool "non-negative deltas" true
        (p.Analyzer.reloc_mutator >= 0
        && p.Analyzer.reloc_gc >= 0
        && p.Analyzer.reloc_bytes >= 0))
    points;
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 points in
  check Alcotest.int "mutator relocations fully attributed"
    metrics.Runner.reloc_mut
    (sum (fun p -> p.Analyzer.reloc_mutator));
  check Alcotest.int "gc relocations fully attributed" metrics.Runner.reloc_gc
    (sum (fun p -> p.Analyzer.reloc_gc));
  (* MMU of a real run stays in [0, 1] at any window, including windows
     shorter than a pause. *)
  List.iter
    (fun window ->
      let u = Analyzer.mmu_of recorder ~window in
      check Alcotest.bool
        (Printf.sprintf "mmu in range at window %d" window)
        true
        (u >= 0.0 && u <= 1.0))
    [ 1; 1_000; 10_000; 100_000; 1_000_000 ]

(* ------------------------------------------------------------------ *)
(* Per-tier miss time series: far_loads on the sample cadence           *)
(* ------------------------------------------------------------------ *)

(* Each heap sample carries the cumulative far-tier load counter, so the
   far-memory experiments get their miss traffic over time on the same
   cadence as heap usage.  A tiered cold-heavy run must produce a
   non-decreasing series that ends at the VM's final counter; an
   untiered run pins the column to zero. *)
let far_loads_series_tiered () =
  let exp = Fig_synthetic.experiment ~cold_ratio:4 ~scale:25 () in
  let vm =
    exp.Runner.make_vm (Fig_tier.tier_config ~capacity:16 ~lat_far:800
                          ~promote:true)
  in
  let recorder = Vm.enable_telemetry ~sample_interval:20_000 vm in
  exp.Runner.workload vm ~run:0;
  Vm.finish vm;
  let samples = Recorder.samples recorder in
  check Alcotest.bool "several samples" true (List.length samples > 1);
  let last = ref 0 in
  List.iter
    (fun (s : Recorder.sample) ->
      check Alcotest.bool "far_loads non-decreasing" true
        (s.Recorder.far_loads >= !last);
      last := s.Recorder.far_loads)
    samples;
  check Alcotest.bool "series reaches a positive count" true (!last > 0);
  check Alcotest.bool "bounded by the VM's final counter" true
    (!last <= Vm.far_loads vm);
  (* The series survives export: the CSV carries the column and the
     final row ends with the last sample's counter. *)
  let csv = Csv_export.to_string recorder in
  let lines =
    String.split_on_char '\n' (String.trim csv)
    |> List.filter (fun l -> l <> "")
  in
  let header = List.hd lines in
  check Alcotest.bool "header has far_loads column" true
    (let n = String.length header in
     n >= 10 && String.sub header (n - 9) 9 = "far_loads");
  let last_row = List.nth lines (List.length lines - 1) in
  let last_field =
    match List.rev (String.split_on_char ',' last_row) with
    | f :: _ -> f
    | [] -> Alcotest.fail "empty CSV row"
  in
  check Alcotest.string "last row carries the final sample's far_loads"
    (string_of_int !last) last_field

let far_loads_series_untiered () =
  let _, recorder = Runner.profile ~sample_interval:20_000 (small_job ()) in
  let samples = Recorder.samples recorder in
  check Alcotest.bool "several samples" true (List.length samples > 1);
  List.iter
    (fun (s : Recorder.sample) ->
      check Alcotest.int "far_loads zero without a tier" 0
        s.Recorder.far_loads)
    samples

let suite =
  [
    ( "telemetry.recorder",
      [
        case "span nesting" `Quick recorder_span_nesting;
        case "ring drops" `Quick recorder_ring_drops;
        case "close_all" `Quick recorder_close_all;
        case "gc event translation" `Quick recorder_gc_event_translation;
        QCheck_alcotest.to_alcotest prop_ring_matches_model;
        case "full ring allocates nothing" `Quick
          recorder_full_ring_allocates_nothing;
      ] );
    ( "telemetry.analyzer",
      [
        case "percentile fixtures" `Quick percentile_fixtures;
        case "p99.9 nearest-rank fixtures" `Quick p999_fixtures;
        case "interval overlap fixtures" `Quick overlap_fixtures;
        QCheck_alcotest.to_alcotest prop_overlap_sorted_matches_overlap;
        QCheck_alcotest.to_alcotest prop_percentile_sorted_matches_percentile;
        case "mmu fixtures" `Quick mmu_fixtures;
        case "pause stats" `Quick pause_stats_of_recorder;
        case "relocation attribution" `Quick attribution_of_real_run;
      ] );
    ( "telemetry.export",
      [
        case "chrome trace golden" `Quick chrome_trace_golden;
        case "chrome trace shape" `Quick chrome_trace_shape_of_real_run;
        case "csv rows" `Quick csv_row_per_sample;
        case "summary content" `Quick summary_mentions_everything;
        case "far_loads series (tiered)" `Quick far_loads_series_tiered;
        case "far_loads series (untiered)" `Quick far_loads_series_untiered;
      ] );
    ( "telemetry.system",
      [
        case "zero simulated cost" `Quick telemetry_costs_zero_cycles;
        case "parallel determinism" `Quick parallel_traces_deterministic;
      ] );
  ]
