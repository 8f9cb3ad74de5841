(* Tests for hcsgc.exec: the ordered parallel map (ordering, exception
   transparency, sequential fallback) and the determinism guarantee the
   experiment runner builds on top of it, serialized progress included. *)

module Pool = Hcsgc_exec.Pool
module Runner = Hcsgc_experiments.Runner
module Fig_synthetic = Hcsgc_experiments.Fig_synthetic

let check = Alcotest.check
let case = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

(* Every property below holds under the identity start order and its
   reverse: start order may only change which domain runs what. *)
let orders n =
  [
    ("identity", Array.init n Fun.id);
    ("reversed", Array.init n (fun i -> n - 1 - i));
  ]

let map_each_order ~jobs f xs =
  List.map
    (fun (name, order) ->
      (name, Pool.map_array_in_order ~jobs ~order f xs))
    (orders (Array.length xs))

let results_in_submission_order () =
  let items = Array.init 100 Fun.id in
  List.iter
    (fun (name, got) ->
      check (Alcotest.array Alcotest.int)
        ("squares in submission order, " ^ name)
        (Array.map (fun i -> i * i) items)
        got)
    (map_each_order ~jobs:4
       (fun i ->
         (* Stagger work so completion order differs from submission
            order: early items spin longest. *)
         let spin = ref ((100 - i) * 50) in
         while !spin > 0 do
           decr spin;
           Domain.cpu_relax ()
         done;
         i * i)
       items)

let map_array_ordered () =
  List.iter
    (fun (name, got) ->
      check (Alcotest.array Alcotest.int) ("doubled, ordered, " ^ name)
        (Array.init 37 (fun i -> 2 * i))
        got)
    (map_each_order ~jobs:3 (fun i -> 2 * i) (Array.init 37 Fun.id))

exception Boom of int

let exception_propagates () =
  List.iter
    (fun (name, order) ->
      Alcotest.check_raises ("worker exception re-raised, " ^ name) (Boom 7)
        (fun () ->
          ignore
            (Pool.map_array_in_order ~jobs:2 ~order
               (fun i -> if i = 5 then raise (Boom 7) else i)
               (Array.init 10 Fun.id))))
    (orders 10)

let first_failure_in_input_order () =
  (* Items 3 and 7 both fail; reversed, 7 is submitted (and at jobs:1
     run) first, yet the re-raised failure is still item 3's. *)
  List.iter
    (fun jobs ->
      List.iter
        (fun (name, order) ->
          Alcotest.check_raises
            (Printf.sprintf "first failure re-raised, %s, jobs:%d" name jobs)
            (Boom 3)
            (fun () ->
              ignore
                (Pool.map_array_in_order ~jobs ~order
                   (fun i -> if i = 3 || i = 7 then raise (Boom i) else i)
                   (Array.init 10 Fun.id))))
        (orders 10))
    [ 1; 2 ]

let exception_keeps_backtrace () =
  (* The re-raise must carry the worker's backtrace, not the awaiter's:
     raise_with_backtrace preserves the trace recorded at capture time. *)
  Printexc.record_backtrace true;
  let deep_raise () =
    let rec go n = if n = 0 then raise (Boom 1) else 1 + go (n - 1) in
    ignore (go 5)
  in
  List.iter
    (fun (_, order) ->
      match
        Pool.map_array_in_order ~jobs:2 ~order (fun () -> deep_raise ())
          [| (); () |]
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 1 -> ())
    (orders 2)

let jobs1_runs_on_calling_domain () =
  let caller = (Domain.self () :> int) in
  List.iter
    (fun (_, seen) ->
      Array.iter
        (fun d -> check Alcotest.int "no extra domain at jobs:1" caller d)
        seen)
    (map_each_order ~jobs:1
       (fun _ -> (Domain.self () :> int))
       (Array.init 8 Fun.id))

let jobsn_uses_worker_domains () =
  let caller = (Domain.self () :> int) in
  List.iter
    (fun (name, seen) ->
      check Alcotest.bool
        ("some job ran off the calling domain, " ^ name)
        true
        (Array.exists (fun d -> d <> caller) seen))
    (map_each_order ~jobs:2
       (fun _ -> (Domain.self () :> int))
       (Array.init 8 Fun.id))

let default_jobs_clamped () =
  let d = Pool.default_jobs () in
  check Alcotest.bool "1 <= default <= 16" true (d >= 1 && d <= 16)

(* Run [f] with HCSGC_JOBS set to [v] (Unix.putenv leaks into the process
   environment, so restore an innocuous value afterwards). *)
let with_jobs_env v f =
  let prev = Sys.getenv_opt "HCSGC_JOBS" in
  Unix.putenv "HCSGC_JOBS" v;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "HCSGC_JOBS" (Option.value prev ~default:""))
    f

let default_jobs_env_override () =
  with_jobs_env "3" (fun () ->
      check Alcotest.int "HCSGC_JOBS=3 honoured" 3 (Pool.default_jobs ()));
  with_jobs_env " 24 " (fun () ->
      check Alcotest.int "not clamped to 16" 24 (Pool.default_jobs ()));
  (* OCaml 5.1's domain limit: 128 per process, the caller included. *)
  with_jobs_env "1000" (fun () ->
      check Alcotest.int "clamped to the domain limit" 127
        (Pool.default_jobs ()));
  (* Malformed or non-positive values fall back to the clamped default. *)
  List.iter
    (fun v ->
      with_jobs_env v (fun () ->
          let d = Pool.default_jobs () in
          check Alcotest.bool
            (Printf.sprintf "HCSGC_JOBS=%S falls back" v)
            true
            (d >= 1 && d <= 16)))
    [ "0"; "-2"; "many"; "" ]

(* ------------------------------------------------------------------ *)
(* Determinism of parallel sweeps                                      *)
(* ------------------------------------------------------------------ *)

let table2_tasks_expansion () =
  let tasks =
    Runner.table2_tasks ~config_ids:[ 0; 4; 16 ] ~runs:2 ~name:"x" ~key:"k"
      (fun _ ~run ~verify:_ -> run)
  in
  check Alcotest.int "3 configs x 2 runs" 6 (Array.length tasks);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "deterministic (config, run) order"
    (List.concat_map
       (fun id -> [ (Runner.config_key id, 0); (Runner.config_key id, 1) ])
       [ 0; 4; 16 ])
    (Array.to_list (Array.map (fun t -> (t.Runner.config, t.Runner.run)) tasks))

(* [Runner.sweep] serializes [progress]: a sink that is not domain-safe
   (a shared Buffer) still receives every group's line whole, once. *)
let progress_lines_stay_whole () =
  let groups = 200 in
  let tasks =
    Array.init groups (fun g ->
        {
          Runner.group = Printf.sprintf "group=%d %s tail" g (String.make 64 'x');
          experiment = "progress-test";
          config = string_of_int g;
          run = 0;
          compute = (fun ~verify:_ -> g);
        })
  in
  let buf = Buffer.create 4096 in
  let got =
    Runner.sweep ~jobs:4
      ~progress:(fun l -> Buffer.add_string buf (l ^ "\n"))
      ~verify:false ~encode:string_of_int ~decode:int_of_string_opt tasks
  in
  check (Alcotest.array Alcotest.int) "results in task order"
    (Array.init groups Fun.id) got;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  (* A torn or interleaved line would not equal any group string. *)
  check (Alcotest.list Alcotest.string) "every group's line, whole, once"
    (List.sort compare (Array.to_list (Array.map (fun t -> t.Runner.group) tasks)))
    (List.sort compare lines)

let parallel_sweep_bit_identical () =
  (* A small Fig. 4 sweep: every run_metrics field (including the
     heap-sample series) must be byte-identical at -j 4 and -j 1. *)
  let exp = Fig_synthetic.experiment ~scale:50 () in
  let sweep jobs =
    Runner.run_configs ~config_ids:[ 0; 4; 16 ] ~runs:2 ~jobs exp
  in
  let seq = sweep 1 in
  let par = sweep 4 in
  check Alcotest.int "same config count" (List.length seq) (List.length par);
  let seq_bytes = Marshal.to_string seq [] in
  let par_bytes = Marshal.to_string par [] in
  check Alcotest.bool "byte-identical run_metrics" true (seq_bytes = par_bytes)

let suite =
  [
    ( "exec.pool",
      [
        case "results in submission order" `Quick results_in_submission_order;
        case "map_array ordered" `Quick map_array_ordered;
        case "exception propagates" `Quick exception_propagates;
        case "first failure in input order" `Quick first_failure_in_input_order;
        case "exception keeps backtrace" `Quick exception_keeps_backtrace;
        case "jobs:1 uses no domains" `Quick jobs1_runs_on_calling_domain;
        case "jobs:n uses worker domains" `Quick jobsn_uses_worker_domains;
        case "default_jobs clamped" `Quick default_jobs_clamped;
        case "default_jobs env override" `Quick default_jobs_env_override;
      ] );
    ( "exec.determinism",
      [
        case "table2_tasks expansion" `Quick table2_tasks_expansion;
        case "progress lines stay whole" `Quick progress_lines_stay_whole;
        case "parallel sweep bit-identical" `Slow parallel_sweep_bit_identical;
      ] );
  ]
