(* bench/tier: the far-memory tier across capacities.

   Runs the cold-heavy tiered synthetic family once per tier capacity and
   reports host wall-clock seconds plus the simulated far-tier effect:
   far-load share of LLC misses, peak far residency and the
   demotion/promotion counts.

   Usage:
     dune exec bench/tier/main.exe --                     # default sizes
     dune exec bench/tier/main.exe -- --quick             # CI smoke sizes
     dune exec bench/tier/main.exe -- --out BENCH_tier.json *)

module Vm = Hcsgc_runtime.Vm
module Tier = Hcsgc_memsim.Tier
module Runner = Hcsgc_experiments.Runner
module Fig_tier = Hcsgc_experiments.Fig_tier
module Fig_synthetic = Hcsgc_experiments.Fig_synthetic

let run_once ~capacity ~scale =
  let config =
    Fig_tier.tier_config ~capacity ~lat_far:Fig_tier.default_lat_far
      ~promote:true
  in
  let exp = Fig_synthetic.experiment ~cold_ratio:4 ~scale () in
  let vm = exp.Runner.make_vm config in
  let t0 = Unix.gettimeofday () in
  exp.Runner.workload vm ~run:0;
  Vm.finish vm;
  let dt = Unix.gettimeofday () -. t0 in
  let m = Runner.collect vm in
  let far_peak =
    match Vm.tier vm with Some t -> Tier.peak_bytes t | None -> 0
  in
  (dt, m, far_peak)

type sample = {
  capacity : int;
  seconds : float;
  wall : float;
  far_share : float;  (* far loads / LLC misses *)
  far_peak : int;
  demoted : int;
  promoted : int;
}

let json_of ~label ~scale ~lat_far samples =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"benchmark\": %S,\n" "bench/tier");
  Buffer.add_string b (Printf.sprintf "  \"label\": %S,\n" label);
  Buffer.add_string b (Printf.sprintf "  \"ocaml\": %S,\n" Sys.ocaml_version);
  Buffer.add_string b (Printf.sprintf "  \"scale\": %d,\n" scale);
  Buffer.add_string b (Printf.sprintf "  \"lat_far\": %d,\n" lat_far);
  Buffer.add_string b "  \"samples\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"capacity_pages\": %d, \"seconds\": %.3f, \"sim_wall\": \
            %.0f, \"far_share\": %.4f, \"peak_far_bytes\": %d, \"demoted\": \
            %d, \"promoted\": %d }%s\n"
           s.capacity s.seconds s.wall s.far_share s.far_peak s.demoted
           s.promoted
           (if i = List.length samples - 1 then "" else ",")))
    samples;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let () =
  let scale = ref 1 in
  let out = ref None in
  let label = ref "current" in
  let capacities = ref Fig_tier.default_capacities in
  let spec =
    [
      ("--scale", Arg.Set_int scale, "K divide workload size (default 1)");
      ("--quick", Arg.Unit (fun () -> scale := 8), " CI smoke sizes");
      ( "--capacities",
        Arg.String
          (fun s ->
            capacities :=
              List.map int_of_string (String.split_on_char ',' s)),
        "C,C,... tier capacities in pages (default 0,4,16,64)" );
      ("--out", Arg.String (fun s -> out := Some s), "FILE write JSON here");
      ("--label", Arg.Set_string label, "S label stored in the JSON output");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench/tier/main.exe -- far-tier capacity sweep";
  Printf.printf "tier sweep: scale /%d, capacities %s, lat_far %dc\n%!" !scale
    (String.concat "," (List.map string_of_int !capacities))
    Fig_tier.default_lat_far;
  let samples =
    List.map
      (fun capacity ->
        let seconds, m, far_peak = run_once ~capacity ~scale:!scale in
        let far_share =
          if m.Runner.llc_misses > 0.0 then
            m.Runner.far_loads /. m.Runner.llc_misses
          else 0.0
        in
        Printf.printf
          "  capacity %3d: %6.3f s  wall %12.0f  far %4.1f%%  peak %5d KiB  \
           demoted %d promoted %d\n%!"
          capacity seconds m.Runner.wall (100.0 *. far_share) (far_peak / 1024)
          m.Runner.pages_demoted m.Runner.pages_promoted;
        {
          capacity;
          seconds;
          wall = m.Runner.wall;
          far_share;
          far_peak;
          demoted = m.Runner.pages_demoted;
          promoted = m.Runner.pages_promoted;
        })
      !capacities
  in
  match !out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc (json_of ~label:!label ~scale:!scale
                          ~lat_far:Fig_tier.default_lat_far samples);
      close_out oc;
      Printf.printf "wrote %s\n%!" file
