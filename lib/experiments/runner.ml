module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module H = Hcsgc_memsim.Hierarchy
module Pool = Hcsgc_exec.Pool
module Fingerprint = Hcsgc_store.Fingerprint
module Result_store = Hcsgc_store.Result_store
module Scheduler = Hcsgc_store.Scheduler

type run_metrics = {
  wall : float;
  loads : float;
  l1_misses : float;
  llc_misses : float;
  mut_l1_misses : float;
  mut_llc_misses : float;
  far_loads : float;
  gc_cycle_count : int;
  ec_median : float;
  reloc_mut : int;
  reloc_gc : int;
  pages_demoted : int;
  pages_promoted : int;
  heap_samples : (int * int) list;
}

let collect vm =
  let c = Vm.counters vm in
  let mc = Vm.mutator_counters vm in
  let st = Vm.gc_stats vm in
  {
    wall = float_of_int (Vm.wall_cycles vm);
    loads = float_of_int c.H.loads;
    l1_misses = float_of_int c.H.l1_misses;
    llc_misses = float_of_int c.H.llc_misses;
    mut_l1_misses = float_of_int mc.H.l1_misses;
    mut_llc_misses = float_of_int mc.H.llc_misses;
    far_loads = float_of_int (Vm.far_loads vm);
    gc_cycle_count = Gc_stats.cycles st;
    ec_median = Gc_stats.median_small_pages_in_ec st;
    reloc_mut = Gc_stats.objects_relocated_by_mutator st;
    reloc_gc = Gc_stats.objects_relocated_by_gc st;
    pages_demoted = Gc_stats.pages_demoted st;
    pages_promoted = Gc_stats.pages_promoted st;
    heap_samples = Gc_stats.heap_samples st;
  }

type experiment = {
  name : string;
  key : string;
  make_vm : Config.t -> Vm.t;
  workload : Vm.t -> run:int -> unit;
}

type job = { exp : experiment; config_id : int; run : int }

let jobs_of ?(config_ids = List.map fst Config.table2) ~runs exp =
  List.concat_map
    (fun id -> List.init runs (fun run -> { exp; config_id = id; run }))
    config_ids

(* ------------------------------------------------------------------ *)
(* Result-store integration: fingerprints, metrics codec, cache handle *)
(* ------------------------------------------------------------------ *)

(* Lossless knob rendering ([%h] floats), deliberately excluding the
   config {e id}: ids 0 and 1 are the same knob vector, so by content
   addressing they share one cache entry — which is exactly right, their
   metrics are bit-identical.  The record pattern is closed, so a knob
   added to [Config.t] is a compile error here until it is keyed. *)
let config_value_key
    {
      Config.hotness;
      coldpage;
      cold_confidence;
      relocate_all_small_pages;
      lazy_relocate;
      tier_capacity_pages;
      lat_far;
      tier_promote;
    } =
  Printf.sprintf "h=%b;cp=%b;cc=%h;ra=%b;lz=%b;tc=%d;lf=%d;tp=%b" hotness
    coldpage cold_confidence relocate_all_small_pages lazy_relocate
    tier_capacity_pages lat_far tier_promote

let config_key config_id = config_value_key (Config.of_id config_id)

let metrics_magic = "hcsgc-metrics 2"

let metrics_to_string m =
  let buf = Buffer.create 256 in
  Buffer.add_string buf metrics_magic;
  Buffer.add_char buf '\n';
  (* [%h] round-trips every finite float exactly through float_of_string. *)
  Printf.bprintf buf "%h %h %h %h %h %h %h %d %h %d %d %d %d\n" m.wall m.loads
    m.l1_misses m.llc_misses m.mut_l1_misses m.mut_llc_misses m.far_loads
    m.gc_cycle_count m.ec_median m.reloc_mut m.reloc_gc m.pages_demoted
    m.pages_promoted;
  List.iter
    (fun (wall, used) -> Printf.bprintf buf "%d,%d " wall used)
    m.heap_samples;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let metrics_of_string s =
  let ( let* ) = Option.bind in
  match String.split_on_char '\n' s with
  | [ magic; scalars; samples; "" ] when magic = metrics_magic ->
      let* wall, loads, l1, llc, mut_l1, mut_llc, far, gc_cycles, ec, rm, rg,
           pd, pp =
        match String.split_on_char ' ' scalars with
        | [ w; lo; l1; ll; m1; ml; fr; gc; ec; rm; rg; pd; pp ] ->
            let* w = float_of_string_opt w in
            let* lo = float_of_string_opt lo in
            let* l1 = float_of_string_opt l1 in
            let* ll = float_of_string_opt ll in
            let* m1 = float_of_string_opt m1 in
            let* ml = float_of_string_opt ml in
            let* fr = float_of_string_opt fr in
            let* gc = int_of_string_opt gc in
            let* ec = float_of_string_opt ec in
            let* rm = int_of_string_opt rm in
            let* rg = int_of_string_opt rg in
            let* pd = int_of_string_opt pd in
            let* pp = int_of_string_opt pp in
            Some (w, lo, l1, ll, m1, ml, fr, gc, ec, rm, rg, pd, pp)
        | _ -> None
      in
      let* heap_samples =
        String.split_on_char ' ' samples
        |> List.filter (fun p -> p <> "")
        |> List.fold_left
             (fun acc pair ->
               let* acc = acc in
               match String.split_on_char ',' pair with
               | [ w; u ] ->
                   let* w = int_of_string_opt w in
                   let* u = int_of_string_opt u in
                   Some ((w, u) :: acc)
               | _ -> None)
             (Some [])
        |> Option.map List.rev
      in
      Some
        {
          wall;
          loads;
          l1_misses = l1;
          llc_misses = llc;
          mut_l1_misses = mut_l1;
          mut_llc_misses = mut_llc;
          far_loads = far;
          gc_cycle_count = gc_cycles;
          ec_median = ec;
          reloc_mut = rm;
          reloc_gc = rg;
          pages_demoted = pd;
          pages_promoted = pp;
          heap_samples;
        }
  | _ -> None

type cache = { store : Result_store.t; refresh : bool }

let cache ?(refresh = false) ~dir () = { store = Result_store.open_ ~dir; refresh }

let default_cache_dir = "_hcsgc_cache"

type renderer =
  ?runs:int -> ?scale:int -> ?jobs:int -> ?cache:cache ->
  Format.formatter -> unit

(* ------------------------------------------------------------------ *)
(* The sweep engine                                                    *)
(* ------------------------------------------------------------------ *)

type 'a task = {
  group : string;
  experiment : string;
  config : string;
  run : int;
  compute : unit -> 'a;
}

(* The one place a content address and a cost key are spelled.  Cost
   model granularity is one key per (experiment, knob vector): run seeds
   barely move a job's duration, but configurations move it a lot
   (relocate-all vs baseline), so this is the level the scheduler can
   usefully distinguish. *)
let task_fingerprint ~verify t =
  Fingerprint.make ~experiment:t.experiment ~config:t.config ~run:t.run ~verify

let task_cost_key t = t.experiment ^ "#" ^ t.config

(* The store step: simulate, then record the result under its address
   together with how long it took. *)
let compute_and_store ?cache ~verify ~encode t =
  let t0 = Unix.gettimeofday () in
  let v = t.compute () in
  (match cache with
  | None -> ()
  | Some c ->
      Result_store.add c.store (task_fingerprint ~verify t)
        ~cost_key:(task_cost_key t)
        ~cost:(Unix.gettimeofday () -. t0)
        (encode v));
  v

let sweep ?(jobs = 1) ?cache ?(progress = fun _ -> ()) ~verify ~encode ~decode
    tasks =
  let n = Array.length tasks in
  (* Resolve hits up front on the calling domain: hits cost milliseconds,
     and knowing the miss set lets the scheduler order real work only.  A
     payload that passes the store checksum but fails [decode] is counted
     invalid and treated as a miss, so it is recomputed and overwritten
     rather than crashing the sweep. *)
  let lookup t =
    match cache with
    | Some c when not c.refresh -> (
        match Result_store.find c.store (task_fingerprint ~verify t) with
        | None -> None
        | Some payload ->
            let v = decode payload in
            if Option.is_none v then Result_store.note_invalid c.store;
            v)
    | _ -> None
  in
  let cached = Array.map lookup tasks in
  let hits, misses =
    List.init n Fun.id |> List.partition (fun i -> Option.is_some cached.(i))
  in
  let misses = Array.of_list misses in
  let estimate k =
    let cost_key = task_cost_key tasks.(misses.(k)) in
    Option.bind cache (fun c -> Result_store.estimate c.store ~cost_key)
  in
  (* Hits resolve instantly, so submitting them first never delays a
     worker; the computing tasks follow longest-estimated-first. *)
  let order =
    Array.append (Array.of_list hits)
      (Array.map (fun k -> misses.(k))
         (Scheduler.order ~estimate (Array.length misses)))
  in
  (* Progress calls are serialized so concurrent workers cannot
     interleave them mid-line.  Each group that computes anything is
     announced once, by whichever of its tasks starts first. *)
  let progress_lock = Mutex.create () in
  let announced = Hashtbl.create 32 in
  Array.iter
    (fun t -> Hashtbl.replace announced t.group (Atomic.make false))
    tasks;
  let run_one i =
    match cached.(i) with
    | Some v -> v
    | None ->
        let t = tasks.(i) in
        let flag = Hashtbl.find announced t.group in
        if Atomic.compare_and_set flag false true then
          Mutex.protect progress_lock (fun () -> progress t.group);
        compute_and_store ?cache ~verify ~encode t
  in
  Pool.map_array_in_order ~jobs ~order run_one (Array.init n Fun.id)

let chunks keys ~size xs =
  List.mapi (fun i k -> (k, Array.sub xs (i * size) size)) keys

(* ------------------------------------------------------------------ *)
(* Table 2 sweeps on top of the engine                                 *)
(* ------------------------------------------------------------------ *)

let simulate ~verify exp config ~run =
  let vm = exp.make_vm config in
  if verify then Vm.enable_verification vm;
  exp.workload vm ~run;
  Vm.finish vm;
  vm

let experiment_task ~verify ~group exp config ~run =
  {
    group;
    experiment = exp.key;
    config = config_value_key config;
    run;
    compute = (fun () -> collect (simulate ~verify exp config ~run));
  }

let task ~verify { exp; config_id; run } =
  let config = Config.of_id config_id in
  experiment_task ~verify
    ~group:
      (Printf.sprintf "%s: config %d (%s)" exp.name config_id
         (Config.to_string config))
    exp config ~run

let fingerprint ~verify job = task_fingerprint ~verify (task ~verify job)
let cost_key job = task_cost_key (task ~verify:false job)

let sweep_jobs ?jobs ?cache ?progress ~verify job_arr =
  sweep ?jobs ?cache ?progress ~verify ~encode:metrics_to_string
    ~decode:metrics_of_string
    (Array.map (task ~verify) job_arr)

let execute ?(verify = false) ?cache job =
  (sweep_jobs ?cache ~verify [| job |]).(0)

let profile ?sample_interval ?(verify = false) ?cache job =
  (* Telemetry attaches after verification and before the workload, on
     the calling domain; it charges no simulated cycles, so a profiled
     run's metrics equal an unprofiled one's and may seed the store for
     later sweeps.  The trace itself is not cached. *)
  let recorder = ref None in
  let workload vm ~run =
    recorder := Some (Vm.enable_telemetry ?sample_interval vm);
    job.exp.workload vm ~run
  in
  let t = task ~verify { job with exp = { job.exp with workload } } in
  let m = compute_and_store ?cache ~verify ~encode:metrics_to_string t in
  (m, Option.get !recorder)

let run_configs ?(config_ids = List.map fst Config.table2) ?progress ?jobs
    ?(verify = false) ?cache ~runs exp =
  let job_arr = Array.of_list (jobs_of ~config_ids ~runs exp) in
  sweep_jobs ?jobs ?cache ?progress ~verify job_arr
  |> chunks config_ids ~size:runs
