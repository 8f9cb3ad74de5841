module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Tier = Hcsgc_memsim.Tier
module Serve = Hcsgc_serve.Serve
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
        heap Fig_serve.trigger;
    make_vm = Fig_serve.make_vm ~params ~heap;
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

let format : _ format6 = "hcsgc-tier-metrics 1\n%h %h %h %h %d %d %d\n"

let outcome_to_string o =
  Printf.sprintf format o.wall o.loads o.llc_misses o.far_loads o.far_peak
    o.demoted o.promoted

let outcome_of_string =
  Runner.decode (fun ib ->
      Scanf.bscanf ib format
        (fun wall loads llc_misses far_loads far_peak demoted promoted ->
          { wall; loads; llc_misses; far_loads; far_peak; demoted; promoted }))

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let compute ~verify exp config run =
  let vm = Runner.simulate ~verify exp config ~run in
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

let sweep ?(capacities = default_capacities) ?(runs = 3) ?jobs
    ?(verify = false) ?cache ?(scale = 1) ?progress () =
  let fams = families ~scale () in
  let tasks_at (fam, (exp : Runner.experiment)) cap =
    let config =
      tier_config ~capacity:cap ~lat_far:default_lat_far ~promote:true
    in
    List.init runs (fun run ->
        {
          Runner.group =
            Printf.sprintf "tier: %s cap=%d pages (lat_far=%d)" fam cap
              default_lat_far;
          experiment = "ftier;" ^ exp.Runner.key;
          config = Runner.config_value_key config;
          run;
          compute = (fun () -> compute ~verify exp config run);
        })
  in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun fam -> List.concat_map (tasks_at fam) capacities)
         fams)
  in
  (* Families in order, then capacities in order, then runs. *)
  Runner.sweep ?jobs ?cache ?progress ~verify ~encode:outcome_to_string
    ~decode:outcome_of_string tasks
  |> Runner.chunks fams ~size:(List.length capacities * runs)
  |> List.map (fun ((fam, _), os) ->
         (fam, Runner.chunks capacities ~size:runs os))

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
