module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module H = Hcsgc_memsim.Hierarchy
module Pool = Hcsgc_exec.Pool
module Reporter = Hcsgc_exec.Reporter
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

let jobs_of ?config_ids ~runs exp =
  let ids =
    match config_ids with
    | Some ids -> ids
    | None -> List.map fst Config.table2
  in
  List.concat_map
    (fun id -> List.init runs (fun run -> { exp; config_id = id; run }))
    ids

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

let config_fingerprint_key config_id = config_value_key (Config.of_id config_id)

let config_key = config_fingerprint_key

let fingerprint ~verify job =
  Fingerprint.make ~experiment:job.exp.key
    ~config:(config_fingerprint_key job.config_id)
    ~run:job.run ~verify

(* Cost-model granularity: one key per (experiment, knob vector).  Run
   seeds barely move a job's duration, but configurations move it a lot
   (relocate-all vs baseline), so this is the level the scheduler can
   usefully distinguish. *)
let cost_key job = job.exp.key ^ "#" ^ config_fingerprint_key job.config_id

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

(* A cache lookup that only ever says yes with a fully decoded payload:
   an entry passing the store checksum but failing the metrics decoder is
   counted invalid and treated as a miss, so it gets recomputed and
   overwritten rather than crashing the sweep. *)
let try_cached c ~verify job =
  if c.refresh then None
  else
    match Result_store.find c.store (fingerprint ~verify job) with
    | None -> None
    | Some payload -> (
        match metrics_of_string payload with
        | Some m -> Some m
        | None ->
            Result_store.note_invalid c.store;
            None)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let execute_vm ~verify { exp; config_id; run } =
  let config = Config.of_id config_id in
  let vm = exp.make_vm config in
  if verify then Vm.enable_verification vm;
  exp.workload vm ~run;
  Vm.finish vm;
  collect vm

let compute_and_store c ~verify job =
  let t0 = Unix.gettimeofday () in
  let m = execute_vm ~verify job in
  let cost = Unix.gettimeofday () -. t0 in
  Result_store.add c.store (fingerprint ~verify job) ~cost_key:(cost_key job)
    ~cost (metrics_to_string m);
  m

let execute ?(verify = false) ?cache job =
  match cache with
  | None -> execute_vm ~verify job
  | Some c -> (
      match try_cached c ~verify job with
      | Some m -> m
      | None -> compute_and_store c ~verify job)

let profile ?sample_interval ?(verify = false) ?cache { exp; config_id; run } =
  let config = Config.of_id config_id in
  let vm = exp.make_vm config in
  if verify then Vm.enable_verification vm;
  let recorder = Vm.enable_telemetry ?sample_interval vm in
  let t0 = Unix.gettimeofday () in
  exp.workload vm ~run;
  Vm.finish vm;
  let cost = Unix.gettimeofday () -. t0 in
  let m = collect vm in
  (* A profiled run's metrics are bit-identical to an unprofiled one
     (telemetry charges no simulated cycles), so profiling may seed the
     store for later sweeps.  The trace itself is not cached. *)
  (match cache with
  | None -> ()
  | Some c ->
      let job = { exp; config_id; run } in
      Result_store.add c.store (fingerprint ~verify job)
        ~cost_key:(cost_key job) ~cost (metrics_to_string m));
  (m, recorder)

(* Group a job-ordered flat metrics list back into per-configuration
   arrays.  [jobs_of] emits [runs] consecutive jobs per id, so this is a
   plain in-order split — no reordering, hence deterministic. *)
let regroup ~ids ~runs metrics =
  let rec split n = function
    | rest when n = 0 -> ([], rest)
    | [] -> invalid_arg "Runner.regroup: short metrics list"
    | m :: rest ->
        let chunk, rest = split (n - 1) rest in
        (m :: chunk, rest)
  in
  let rec go ids metrics =
    match ids with
    | [] -> []
    | id :: ids ->
        let chunk, rest = split runs metrics in
        (id, Array.of_list chunk) :: go ids rest
  in
  go ids metrics

let run_configs ?config_ids ?(progress = fun _ -> ()) ?(jobs = 1)
    ?(verify = false) ?cache ~runs exp =
  let ids =
    match config_ids with
    | Some ids -> ids
    | None -> List.map fst Config.table2
  in
  let job_arr = Array.of_list (jobs_of ~config_ids:ids ~runs exp) in
  let n = Array.length job_arr in
  (* Progress lines go through a Reporter so concurrent workers cannot
     interleave them mid-line; each configuration that actually computes
     is announced once, by whichever of its jobs starts first (fully
     cached configurations stay silent). *)
  let reporter = Reporter.create ~emit:progress () in
  let announced = Array.map (fun _ -> Atomic.make false) (Array.of_list ids) in
  let index_of = Hashtbl.create 32 in
  List.iteri (fun i id -> Hashtbl.replace index_of id i) ids;
  let announce job =
    match Hashtbl.find_opt index_of job.config_id with
    | Some i when Atomic.compare_and_set announced.(i) false true ->
        Reporter.sayf reporter "%s: config %d (%s)" job.exp.name job.config_id
          (Config.to_string (Config.of_id job.config_id))
    | _ -> ()
  in
  (* Resolve cache hits up front on the calling domain: hits cost
     milliseconds, and knowing the miss set lets the scheduler order real
     work only. *)
  let cached =
    match cache with
    | Some c -> Array.map (fun job -> try_cached c ~verify job) job_arr
    | None -> Array.make n None
  in
  let hit_idx, miss_idx =
    List.init n Fun.id
    |> List.partition (fun i -> Option.is_some cached.(i))
  in
  let miss = Array.of_list miss_idx in
  let scheduled_misses =
    match cache with
    | Some c ->
        let estimate k =
          Result_store.estimate c.store ~cost_key:(cost_key job_arr.(miss.(k)))
        in
        Array.map (fun k -> miss.(k))
          (Scheduler.order ~estimate (Array.length miss))
    | None -> miss
  in
  (* Hits resolve instantly, so submitting them first never delays a
     worker; the computing jobs follow in scheduled order. *)
  let order = Array.append (Array.of_list hit_idx) scheduled_misses in
  let run_one i =
    match cached.(i) with
    | Some m -> m
    | None ->
        let job = job_arr.(i) in
        announce job;
        (match cache with
        | Some c -> compute_and_store c ~verify job
        | None -> execute_vm ~verify job)
  in
  let metrics =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map_array_in_order pool ~order run_one (Array.init n Fun.id))
  in
  regroup ~ids ~runs (Array.to_list metrics)
