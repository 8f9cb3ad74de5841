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

(* Every stored payload lists its fields once, in a [format6] that
   [Printf] writes and [Scanf.bscanf] reads back; only a variable-length
   line (heap samples, a histogram) is written and split by hand.  [%h]
   round-trips every float bit-exactly (NaN payloads aside).  A payload
   must be read to its last byte. *)
let decode scan s =
  let ib = Scanf.Scanning.from_string s in
  match
    let v = scan ib in
    Scanf.bscanf ib "%!" v
  with
  | v -> Some v
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

let metrics_format : _ format6 =
  "hcsgc-metrics 2\n%h %h %h %h %h %h %h %d %h %d %d %d %d\n"

let metrics_to_string m =
  let buf = Buffer.create 256 in
  Printf.bprintf buf metrics_format m.wall m.loads m.l1_misses m.llc_misses
    m.mut_l1_misses m.mut_llc_misses m.far_loads m.gc_cycle_count m.ec_median
    m.reloc_mut m.reloc_gc m.pages_demoted m.pages_promoted;
  List.iter (fun (w, u) -> Printf.bprintf buf "%d,%d " w u) m.heap_samples;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* The heap samples are one line of "w,u " items, split by hand: a
   [Scanf] call per sample made decoding four times slower. *)
let heap_samples line =
  let sample p =
    match String.split_on_char ',' p with
    | [ w; u ] -> (int_of_string w, int_of_string u)
    | _ -> failwith "heap sample"
  in
  match List.rev (String.split_on_char ' ' line) with
  | "" :: rev_samples -> List.rev_map sample rev_samples
  | _ -> failwith "heap samples"

let scan_metrics ib =
  Scanf.bscanf ib metrics_format
    (fun wall loads l1_misses llc_misses mut_l1_misses mut_llc_misses
         far_loads gc_cycle_count ec_median reloc_mut reloc_gc pages_demoted
         pages_promoted ->
      let heap_samples = heap_samples (Scanf.bscanf ib "%[^\n]\n" Fun.id) in
      { wall; loads; l1_misses; llc_misses; mut_l1_misses; mut_llc_misses;
        far_loads; gc_cycle_count; ec_median; reloc_mut; reloc_gc;
        pages_demoted; pages_promoted; heap_samples })

let metrics_of_string = decode scan_metrics

type cache = { store : Result_store.t; refresh : bool }

let cache ?(refresh = false) ~dir () = { store = Result_store.open_ ~dir; refresh }

let default_cache_dir = "_hcsgc_cache"

(* ------------------------------------------------------------------ *)
(* The sweep engine                                                    *)
(* ------------------------------------------------------------------ *)

type 'a task = {
  group : string;
  experiment : string;
  config : string;
  run : int;
  compute : verify:bool -> 'a;
}

(* The one place a content address and a cost key are spelled.  Cost
   model granularity is one key per (experiment, knob vector): run seeds
   barely move a job's duration, but configurations move it a lot
   (relocate-all vs baseline), so this is the level the scheduler can
   usefully distinguish. *)
let task_fingerprint ~verify t =
  Fingerprint.make ~experiment:t.experiment ~config:t.config ~run:t.run ~verify

let task_cost_key t = t.experiment ^ "#" ^ t.config

(* A task made to put its result in place: [compute] does so and returns
   the result's payload, [accept] decodes a payload into place ([false]
   if the decoder rejects it).  The engine runs these, whatever the
   result type. *)
type cell = { task : string task; accept : string -> bool }

let cells ~encode ~decode tasks =
  let results = Array.make (Array.length tasks) None in
  let set i v = results.(i) <- Some v in
  let cell i t =
    let compute ~verify =
      let v = t.compute ~verify in
      set i v;
      encode v
    in
    let accept s =
      match decode s with
      | Some v ->
          set i v;
          true
      | None -> false
    in
    { task = { t with compute }; accept }
  in
  (Array.mapi cell tasks, fun () -> Array.map Option.get results)

let run_cells ?(jobs = 1) ?cache ?(progress = fun _ -> ()) ~verify cells =
  let fp c = task_fingerprint ~verify c.task in
  (* Every cell asking for each fingerprint.  The first one is looked up
     or computed, and hands its payload to the others. *)
  let askers = Hashtbl.create 64 in
  let firsts =
    List.filter
      (fun c ->
        let key = Fingerprint.to_hex (fp c) in
        let first = not (Hashtbl.mem askers key) in
        Hashtbl.add askers key c;
        first)
      (Array.to_list cells)
  in
  let share c payload =
    List.iter
      (fun other ->
        if other != c && not (other.accept payload) then
          invalid_arg "Runner: tasks with one fingerprint and two codecs")
      (Hashtbl.find_all askers (Fingerprint.to_hex (fp c)))
  in
  (* Resolve hits up front on the calling domain: hits cost milliseconds,
     and knowing the miss set lets the scheduler order real work only.  A
     payload that passes the store checksum but fails [decode] is counted
     invalid and treated as a miss, so it is recomputed and overwritten
     rather than crashing the sweep. *)
  let served cell =
    match cache with
    | Some c when not c.refresh -> (
        match Result_store.find c.store (fp cell) with
        | Some payload when cell.accept payload ->
            share cell payload;
            true
        | Some payload ->
            Result_store.note_invalid c.store payload;
            false
        | None -> false)
    | _ -> false
  in
  let misses = Array.of_list (List.filter (fun c -> not (served c)) firsts) in
  let estimate k =
    Option.bind cache (fun c ->
        Result_store.estimate c.store ~cost_key:(task_cost_key misses.(k).task))
  in
  (* Progress calls are serialized so concurrent workers cannot
     interleave them mid-line.  Each group that computes anything is
     announced once, by whichever of its tasks starts first. *)
  let progress_lock = Mutex.create () and announced = Hashtbl.create 32 in
  let compute ({ task = t; _ } as cell) =
    Mutex.protect progress_lock (fun () ->
        if not (Hashtbl.mem announced t.group) then begin
          Hashtbl.add announced t.group ();
          progress t.group
        end);
    let t0 = Unix.gettimeofday () in
    let payload = t.compute ~verify in
    Option.iter
      (fun s ->
        Result_store.add s.store (fp cell) ~cost_key:(task_cost_key t)
          ~cost:(Unix.gettimeofday () -. t0)
          payload)
      cache;
    payload
  in
  Pool.map_array_in_order ~jobs
    ~order:(Scheduler.order ~estimate (Array.length misses))
    compute misses
  |> Array.iteri (fun k payload -> share misses.(k) payload)

let sweep ?jobs ?cache ?progress ~verify ~encode ~decode tasks =
  let cells, results = cells ~encode ~decode tasks in
  run_cells ?jobs ?cache ?progress ~verify cells;
  results ()

type plan =
  | Plan : {
      tasks : 'a task array;
      encode : 'a -> string;
      decode : string -> 'a option;
      render : 'a array -> Format.formatter -> unit;
    }
      -> plan

let static print =
  Plan
    {
      tasks = [||];
      encode = Fun.id;
      decode = Option.some;
      render = (fun _ -> print);
    }

let render ?jobs ?cache ?progress ~verify plans fmt =
  let staged =
    List.map
      (fun (Plan p) ->
        let cells, results = cells ~encode:p.encode ~decode:p.decode p.tasks in
        (cells, fun () -> p.render (results ()) fmt))
      plans
  in
  run_cells ?jobs ?cache ?progress ~verify (Array.concat (List.map fst staged));
  List.iter (fun (_, render) -> render ()) staged

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

let measure exp config ~run ~verify = collect (simulate ~verify exp config ~run)

let config_task ~group ~key compute config run =
  {
    group;
    experiment = key;
    config = config_value_key config;
    run;
    compute = compute config ~run;
  }

let tasks ~runs ~key compute configs =
  Array.of_list
    (List.concat_map
       (fun (group, config) ->
         List.init runs (config_task ~group ~key compute config))
       configs)

let table2_ids = List.map fst Config.table2

let row ~name id =
  let config = Config.of_id id in
  let group =
    Printf.sprintf "%s: config %d (%s)" name id (Config.to_string config)
  in
  (group, config)

let table2_tasks ?(config_ids = table2_ids) ~runs ~name ~key compute =
  tasks ~runs ~key compute (List.map (row ~name) config_ids)

let job_task { exp; config_id; run } =
  let group, config = row ~name:exp.name config_id in
  config_task ~group ~key:exp.key (measure exp) config run

let fingerprint ~verify job = task_fingerprint ~verify (job_task job)
let cost_key job = task_cost_key (job_task job)

let sweep_metrics = sweep ~encode:metrics_to_string ~decode:metrics_of_string

let execute ?(verify = false) ?cache job =
  (sweep_metrics ?cache ~verify [| job_task job |]).(0)

let profile ?sample_interval ?(verify = false) ?cache job =
  (* Telemetry attaches after verification and before the workload, on
     the calling domain; it charges no simulated cycles, so a profiled
     run's metrics equal an unprofiled one's and may seed the store for
     later sweeps: it runs as a refresh, computed and stored whatever the
     store holds.  The trace itself is not cached. *)
  let recorder = ref None in
  let workload vm ~run =
    recorder := Some (Vm.enable_telemetry ?sample_interval vm);
    job.exp.workload vm ~run
  in
  let cache = Option.map (fun c -> { c with refresh = true }) cache in
  let job = { job with exp = { job.exp with workload } } in
  let m = (sweep_metrics ?cache ~verify [| job_task job |]).(0) in
  (m, Option.get !recorder)

let run_configs ?(config_ids = table2_ids) ?jobs ?(verify = false) ?cache ~runs
    exp =
  table2_tasks ~config_ids ~runs ~name:exp.name ~key:exp.key (measure exp)
  |> sweep_metrics ?jobs ?cache ~verify
  |> chunks config_ids ~size:runs
