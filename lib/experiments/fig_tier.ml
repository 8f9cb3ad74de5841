module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Layout = Hcsgc_heap.Layout
module Tier = Hcsgc_memsim.Tier
module Serve = Hcsgc_serve.Serve
module Pool = Hcsgc_exec.Pool
module Reporter = Hcsgc_exec.Reporter
module Fingerprint = Hcsgc_store.Fingerprint
module Result_store = Hcsgc_store.Result_store
module Bootstrap = Hcsgc_stats.Bootstrap
module Render = Hcsgc_stats.Render

(* Capacities are small pages of the scaled 64 KiB layout, so the default
   sweep spans "no tier" to a 4 MiB far tier — comparable to the scaled
   working sets of every family below. *)
let default_capacities = [ 0; 4; 16; 64 ]
let default_lat_far = 800

(* All families run under the paper's strongest hotness configuration
   (config 16's knob vector) with only the tier knobs sweeping: the tier
   consumes the hotmap/EC cold evidence, so comparing capacities under a
   fixed collector isolates the tiering effect. *)
let tier_config ~capacity ~lat_far ~promote =
  Config.make ~hotness:true ~coldpage:true ~cold_confidence:1.0
    ~lazy_relocate:true ~tier_capacity_pages:capacity ~lat_far
    ~tier_promote:promote ()

(* ------------------------------------------------------------------ *)
(* Workload families                                                   *)
(* ------------------------------------------------------------------ *)

let layout = Layout.scaled ~small_page:(64 * 1024)

(* The serving workload as a plain runner experiment (Fig_serve wraps it
   in SLO analysis, which the tier figure does not need). *)
let serve_experiment ~scale () =
  let params = Fig_serve.scaled_params ~scale in
  let heap = Fig_serve.scaled_heap ~scale in
  {
    Runner.name = "serve";
    key =
      Printf.sprintf "tier-serve;%s;heap=%d;trig=%h"
        (Serve.params_key { params with Serve.seed = 0 })
        heap 0.10;
    make_vm =
      (fun config ->
        Vm.create ~layout ~machine_config:Scaled_machine.config
          ~mutators:params.Serve.mutators ~trigger:0.10
          ~config ~max_heap:heap ());
    workload =
      (fun vm ~run -> ignore (Serve.run vm { params with Serve.seed = run }));
  }

(* The synthetic family carries a 4x cold population, so there genuinely
   are cold pages for the collector to demote; the DaCapo sims and the
   serving tier bring their natural hot/cold skew. *)
let families ~scale () =
  [
    ("synthetic", Fig_synthetic.experiment ~cold_ratio:4 ~scale ());
    ("h2", Fig_dacapo.h2_experiment ~scale ());
    ("tradebeans", Fig_dacapo.tradebeans_experiment ~scale ());
    ("serve", serve_experiment ~scale ());
  ]

(* ------------------------------------------------------------------ *)
(* Payload codec: what a job stores under its fingerprint.             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  wall : float;
  loads : float;
  llc_misses : float;
  far_loads : float;
  far_peak : int;  (** {!Tier.peak_bytes} — the DRAM-footprint saving *)
  demoted : int;
  promoted : int;
}

let magic = "hcsgc-tier-metrics 1"

let outcome_to_string o =
  Printf.sprintf "%s\n%h %h %h %h %d %d %d\n" magic o.wall o.loads
    o.llc_misses o.far_loads o.far_peak o.demoted o.promoted

let outcome_of_string s =
  match String.split_on_char '\n' s with
  | m :: line :: _ when m = magic -> (
      match String.split_on_char ' ' line with
      | [ w; lo; ll; fl; fp; d; p ] -> (
          match
            ( float_of_string_opt w,
              float_of_string_opt lo,
              float_of_string_opt ll,
              float_of_string_opt fl,
              int_of_string_opt fp,
              int_of_string_opt d,
              int_of_string_opt p )
          with
          | ( Some wall,
              Some loads,
              Some llc_misses,
              Some far_loads,
              Some far_peak,
              Some demoted,
              Some promoted ) ->
              Some
                {
                  wall;
                  loads;
                  llc_misses;
                  far_loads;
                  far_peak;
                  demoted;
                  promoted;
                }
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let fingerprint ~verify (exp : Runner.experiment) config run =
  Fingerprint.make
    ~experiment:("ftier;" ^ exp.Runner.key)
    ~config:(Runner.config_value_key config)
    ~run ~verify

let cost_key (exp : Runner.experiment) config =
  "ftier;" ^ exp.Runner.key ^ "#" ^ Runner.config_value_key config

let compute ~verify (exp : Runner.experiment) config run =
  let vm = exp.Runner.make_vm config in
  if verify then Vm.enable_verification vm;
  exp.Runner.workload vm ~run;
  Vm.finish vm;
  let m = Runner.collect vm in
  let far_peak =
    match Vm.tier vm with Some t -> Tier.peak_bytes t | None -> 0
  in
  {
    wall = m.Runner.wall;
    loads = m.Runner.loads;
    llc_misses = m.Runner.llc_misses;
    far_loads = m.Runner.far_loads;
    far_peak;
    demoted = m.Runner.pages_demoted;
    promoted = m.Runner.pages_promoted;
  }

let try_cached (c : Runner.cache) fp =
  if c.Runner.refresh then None
  else
    match Result_store.find c.Runner.store fp with
    | None -> None
    | Some payload -> (
        match outcome_of_string payload with
        | Some o -> Some o
        | None ->
            Result_store.note_invalid c.Runner.store;
            None)

let sweep ?(capacities = default_capacities) ?(lat_far = default_lat_far)
    ?(promote = true) ?(runs = 3) ?(jobs = 1) ?(verify = false) ?cache
    ?(scale = 1) ?(progress = fun _ -> ()) () =
  let fams = families ~scale () in
  let job_arr =
    Array.of_list
      (List.concat_map
         (fun (fam, exp) ->
           List.concat_map
             (fun cap ->
               let config = tier_config ~capacity:cap ~lat_far ~promote in
               List.init runs (fun run -> (fam, exp, cap, config, run)))
             capacities)
         fams)
  in
  let n = Array.length job_arr in
  let reporter = Reporter.create ~emit:progress () in
  (* Hits resolve up front on the calling domain (store reads stay
     single-domain); misses reach the pool hits-first, so no worker waits
     behind instant jobs. *)
  let cached =
    match cache with
    | Some c ->
        Array.map
          (fun (_, exp, _, config, run) ->
            try_cached c (fingerprint ~verify exp config run))
          job_arr
    | None -> Array.make n None
  in
  let hit_idx, miss_idx =
    List.init n Fun.id |> List.partition (fun i -> Option.is_some cached.(i))
  in
  let order = Array.of_list (hit_idx @ miss_idx) in
  let run_one i =
    match cached.(i) with
    | Some o -> o
    | None ->
        let fam, exp, cap, config, run = job_arr.(i) in
        if run = 0 then
          Reporter.sayf reporter "tier: %s cap=%d pages (lat_far=%d)" fam cap
            lat_far;
        let t0 = Unix.gettimeofday () in
        let o = compute ~verify exp config run in
        (match cache with
        | None -> ()
        | Some c ->
            Result_store.add c.Runner.store
              (fingerprint ~verify exp config run)
              ~cost_key:(cost_key exp config)
              ~cost:(Unix.gettimeofday () -. t0)
              (outcome_to_string o));
        o
  in
  let outcomes =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map_array_in_order pool ~order run_one (Array.init n Fun.id))
  in
  (* Regroup the flat job-order outcome array: families in order, then
     capacities in order, then runs. *)
  let per_fam = List.length capacities * runs in
  List.mapi
    (fun fi (fam, _) ->
      ( fam,
        List.mapi
          (fun ci cap ->
            (cap, Array.sub outcomes ((fi * per_fam) + (ci * runs)) runs))
          capacities ))
    fams

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let bootstrap_seed = 42

let mean f (os : outcome array) =
  Array.fold_left (fun acc o -> acc +. f o) 0.0 os
  /. float_of_int (Array.length os)

let figure ?(runs = 3) ?(scale = 1) ?(jobs = 1) ?cache fmt =
  let results =
    sweep ~runs ~jobs ?cache ~scale
      ~progress:(fun msg -> Format.eprintf "[bench] %s@." msg)
      ()
  in
  Format.fprintf fmt "=== Far-memory tier — hotness-driven page tiering ===@.";
  Format.fprintf fmt
    "collector config h+cp+cc1.0+lz; far latency %dc; capacities in 64 KiB \
     pages; expectation: far hit rate and DRAM savings grow with capacity \
     while the wall-time penalty stays bounded by the cold-page demotion \
     policy (only pages with no hot evidence move far)@.@."
    default_lat_far;
  List.iter
    (fun (fam, rows) ->
      let base_wall =
        match List.assoc_opt 0 rows with
        | Some os -> mean (fun o -> o.wall) os
        | None -> (
            match rows with
            | (_, os) :: _ -> mean (fun o -> o.wall) os
            | [] -> 0.0)
      in
      Format.fprintf fmt "--- %s ---@." fam;
      Render.table fmt
        ~headers:
          [ "cap"; "wall [95% CI]"; "dwall"; "far hit%"; "far loads";
            "peak far KiB"; "demoted"; "promoted" ]
        ~rows:
          (List.map
             (fun (cap, os) ->
               let est =
                 Bootstrap.estimate ~seed:bootstrap_seed
                   (Array.map (fun o -> o.wall) os)
               in
               let wall = mean (fun o -> o.wall) os in
               let llc = mean (fun o -> o.llc_misses) os in
               let far = mean (fun o -> o.far_loads) os in
               [
                 string_of_int cap;
                 Render.estimate_cell est;
                 (if base_wall > 0.0 then
                    Printf.sprintf "%+.1f%%"
                      (100.0 *. (wall -. base_wall) /. base_wall)
                  else "-");
                 (if llc > 0.0 then
                    Printf.sprintf "%.1f" (100.0 *. far /. llc)
                  else "-");
                 Printf.sprintf "%.0f" far;
                 Printf.sprintf "%.0f"
                   (mean (fun o -> float_of_int o.far_peak) os /. 1024.0);
                 Printf.sprintf "%.1f" (mean (fun o -> float_of_int o.demoted) os);
                 Printf.sprintf "%.1f"
                   (mean (fun o -> float_of_int o.promoted) os);
               ])
             rows);
      Format.fprintf fmt "@.")
    results
