(* Tests for hcsgc.exec: the domain pool (ordering, exception transparency,
   sequential fallback), the serialized reporter, and the determinism
   guarantee the experiment runner builds on top of them. *)

module Pool = Hcsgc_exec.Pool
module Reporter = Hcsgc_exec.Reporter
module Runner = Hcsgc_experiments.Runner
module Fig_synthetic = Hcsgc_experiments.Fig_synthetic

let check = Alcotest.check
let case = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

(* [Pool.map_array_in_order] is the pool's one mapping entry point.  Every
   property below holds under the identity submission order and its
   reverse: submission order may only change which worker runs what. *)
let orders n =
  [
    ("identity", Array.init n Fun.id);
    ("reversed", Array.init n (fun i -> n - 1 - i));
  ]

let map_each_order ~jobs f xs =
  List.map
    (fun (name, order) ->
      (name, Pool.with_pool ~jobs (fun pool ->
                 Pool.map_array_in_order pool ~order f xs)))
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
            (Pool.with_pool ~jobs:2 (fun pool ->
                 Pool.map_array_in_order pool ~order
                   (fun i -> if i = 5 then raise (Boom 7) else i)
                   (Array.init 10 Fun.id)))))
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
                (Pool.with_pool ~jobs (fun pool ->
                     Pool.map_array_in_order pool ~order
                       (fun i -> if i = 3 || i = 7 then raise (Boom i) else i)
                       (Array.init 10 Fun.id)))))
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
        Pool.with_pool ~jobs:2 (fun pool ->
            Pool.map_array_in_order pool ~order (fun () -> deep_raise ())
              [| (); () |])
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

let async_await_roundtrip () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let p = Pool.async pool (fun () -> 40 + 2) in
      let q = Pool.async pool (fun () -> "ok") in
      check Alcotest.int "int promise" 42 (Pool.await p);
      check Alcotest.string "string promise" "ok" (Pool.await q))

let submit_after_shutdown_rejected () =
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  Alcotest.check_raises "async on shut-down pool"
    (Invalid_argument "Pool.async: pool is shut down") (fun () ->
      ignore (Pool.await (Pool.async pool (fun () -> ()))))

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
(* Reporter                                                            *)
(* ------------------------------------------------------------------ *)

let reporter_lines_stay_whole () =
  let buf = Buffer.create 4096 in
  let r = Reporter.create (fun l -> Buffer.add_string buf (l ^ "\n")) in
  let domains = 4 and lines = 50 in
  Pool.with_pool ~jobs:domains (fun pool ->
      ignore
        (Pool.map_array_in_order pool
           ~order:(Array.init domains Fun.id)
           (fun d ->
             for i = 0 to lines - 1 do
               Reporter.say r (Printf.sprintf "domain=%d line=%d tail" d i)
             done)
           (Array.init domains Fun.id)));
  let got = String.split_on_char '\n' (Buffer.contents buf) in
  let got = List.filter (fun l -> l <> "") got in
  check Alcotest.int "every line arrived" (domains * lines) (List.length got);
  List.iter
    (fun l ->
      let intact =
        String.length l > 5
        && String.sub l 0 7 = "domain="
        && String.sub l (String.length l - 4) 4 = "tail"
      in
      check Alcotest.bool ("line intact: " ^ l) true intact)
    got

(* ------------------------------------------------------------------ *)
(* Determinism of parallel sweeps                                      *)
(* ------------------------------------------------------------------ *)

let jobs_of_expansion () =
  let exp = Fig_synthetic.experiment ~scale:50 () in
  let jobs = Runner.jobs_of ~config_ids:[ 0; 4; 16 ] ~runs:2 exp in
  check Alcotest.int "3 configs x 2 runs" 6 (List.length jobs);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "deterministic (config, run) order"
    [ (0, 0); (0, 1); (4, 0); (4, 1); (16, 0); (16, 1) ]
    (List.map (fun j -> (j.Runner.config_id, j.Runner.run)) jobs)

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
        case "async/await" `Quick async_await_roundtrip;
        case "shutdown rejects submits" `Quick submit_after_shutdown_rejected;
        case "default_jobs clamped" `Quick default_jobs_clamped;
        case "default_jobs env override" `Quick default_jobs_env_override;
      ] );
    ("exec.reporter", [ case "lines stay whole" `Quick reporter_lines_stay_whole ]);
    ( "exec.determinism",
      [
        case "jobs_of expansion" `Quick jobs_of_expansion;
        case "parallel sweep bit-identical" `Slow parallel_sweep_bit_identical;
      ] );
  ]
