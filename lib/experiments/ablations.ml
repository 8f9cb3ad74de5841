module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Layout = Hcsgc_heap.Layout
module Synthetic = Hcsgc_workloads.Synthetic
module H = Hcsgc_memsim.Hierarchy
module Render = Hcsgc_stats.Render
module Bootstrap = Hcsgc_stats.Bootstrap
module Pool = Hcsgc_exec.Pool

let layout = Layout.scaled ~small_page:(64 * 1024)

let synth_params ~scale =
  let base = Synthetic.default in
  {
    base with
    Synthetic.elements = max 1_000 (base.Synthetic.elements / scale);
    accesses_per_loop = max 1_000 (base.Synthetic.accesses_per_loop / scale);
  }

let run_one ?(layout = layout) ~machine_config ~autotune ~config ~scale ~seed
    () =
  let params = synth_params ~scale in
  let max_heap = max (4 * 1024 * 1024) (5 * params.Synthetic.elements * 48) in
  let vm = Vm.create ~layout ~machine_config ~autotune ~config ~max_heap () in
  ignore (Synthetic.run vm { params with Synthetic.seed });
  Vm.finish vm;
  vm

(* Expand every (variant, seed) pair into one engine job, fan across the
   pool, then bootstrap each variant from its seed-ordered samples — the
   same ordered-aggregation determinism as Runner.sweep. *)
let estimates ~jobs ~runs variants =
  let job_list =
    List.concat_map
      (fun (name, f) -> List.init runs (fun seed -> (name, f, seed)))
      variants
  in
  let samples =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map_list pool (fun (_, f, seed) -> f ~seed) job_list)
  in
  List.mapi
    (fun i (name, _) ->
      let mine = List.filteri (fun j _ -> j / runs = i) samples in
      (name, Bootstrap.estimate ~seed:42 (Array.of_list mine)))
    variants

let table fmt ~title ~note rows =
  Format.fprintf fmt "=== Ablation — %s ===@.%s@.@." title note;
  let base =
    match rows with (_, e) :: _ -> e | [] -> invalid_arg "Ablations: no rows"
  in
  Render.table fmt
    ~headers:[ "variant"; "execution time [95% CI]"; "vs first row" ]
    ~rows:
      (List.map
         (fun (name, est) ->
           [
             name;
             Render.estimate_cell est;
             Render.pct (Bootstrap.relative_to ~baseline:base est);
           ])
         rows);
  Format.pp_print_newline fmt ()

let prefetcher ?(runs = 3) ?(scale = 2) ?(jobs = 1) fmt =
  let go ~prefetch ~config_id ~seed =
    let machine_config = { Scaled_machine.config with H.prefetch } in
    float_of_int
      (Vm.wall_cycles
         (run_one ~machine_config ~autotune:false
            ~config:(Config.of_id config_id) ~scale ~seed ()))
  in
  let rows =
    estimates ~jobs ~runs
      [
        ("zgc, prefetch on", go ~prefetch:true ~config_id:0);
        ("cfg 16, prefetch on", go ~prefetch:true ~config_id:16);
        ("zgc, prefetch off", go ~prefetch:false ~config_id:0);
        ("cfg 16, prefetch off", go ~prefetch:false ~config_id:16);
      ]
  in
  table fmt ~title:"hardware prefetching"
    ~note:
      "expectation: HCSGC's win shrinks substantially without the stream \
       prefetcher — access-order layout pays off mainly by making \
       prefetching effective"
    rows;
  (* Also print the win with/without prefetching explicitly. *)
  (match rows with
  | [ (_, on0); (_, on16); (_, off0); (_, off16) ] ->
      let win a b = Bootstrap.relative_to ~baseline:a b in
      Format.fprintf fmt "HCSGC win with prefetch: %s; without: %s@.@."
        (Render.pct (win on0 on16))
        (Render.pct (win off0 off16))
  | _ -> ())

let tlb ?(runs = 3) ?(scale = 2) ?(jobs = 1) fmt =
  let go ~config_id ~seed =
    let machine_config = { Scaled_machine.config with H.tlb = true } in
    let vm =
      run_one ~machine_config ~autotune:false ~config:(Config.of_id config_id)
        ~scale ~seed ()
    in
    float_of_int (Vm.wall_cycles vm)
  in
  table fmt ~title:"dTLB pressure"
    ~note:
      "expectation: with the dTLB model on, HCSGC's packing of hot objects \
       onto fewer pages also cuts page walks (the page-locality effect)"
    (estimates ~jobs ~runs
       [
         ("zgc, tlb on", go ~config_id:0);
         ("cfg 16, tlb on", go ~config_id:16);
       ])

let autotuner ?(runs = 3) ?(scale = 2) ?(jobs = 1) fmt =
  let fixed cc ~seed =
    let config =
      if cc = 0.0 then Config.make ~hotness:true ~lazy_relocate:true ()
      else Config.make ~hotness:true ~cold_confidence:cc ~lazy_relocate:true ()
    in
    float_of_int
      (Vm.wall_cycles
         (run_one ~machine_config:Scaled_machine.config ~autotune:false ~config
            ~scale ~seed ()))
  in
  let tuned ~seed =
    let config = Config.make ~hotness:true ~lazy_relocate:true () in
    float_of_int
      (Vm.wall_cycles
         (run_one ~machine_config:Scaled_machine.config ~autotune:true ~config
            ~scale ~seed ()))
  in
  table fmt ~title:"COLDCONFIDENCE feedback loop (§4.8 future work)"
    ~note:
      "expectation: the autotuner approaches the best fixed setting without \
       being told it"
    (estimates ~jobs ~runs
       [
         ("fixed cc=0.0 (+lazy)", fixed 0.0);
         ("fixed cc=0.5 (+lazy)", fixed 0.5);
         ("fixed cc=1.0 (+lazy)", fixed 1.0);
         ("autotuned (+lazy)", tuned);
       ])

let page_size ?(runs = 3) ?(scale = 2) ?(jobs = 1) fmt =
  (* §3.4 / §4.8: smaller pages mean finer relocation granularity — EC
     selection can isolate hot objects more precisely, at the cost of more
     page bookkeeping. *)
  let go ~small_page ~config_id ~seed =
    float_of_int
      (Vm.wall_cycles
         (run_one
            ~layout:(Layout.scaled ~small_page)
            ~machine_config:Scaled_machine.config ~autotune:false
            ~config:(Config.of_id config_id) ~scale ~seed ()))
  in
  table fmt ~title:"page size class granularity (§3.4 future work)"
    ~note:
      "expectation: under cfg 16 (WLB selection), smaller pages excavate hot \
       objects more precisely; the baseline is largely insensitive"
    (estimates ~jobs ~runs
       [
         ("zgc, 64K pages", go ~small_page:(64 * 1024) ~config_id:0);
         ("cfg 16, 64K pages", go ~small_page:(64 * 1024) ~config_id:16);
         ("cfg 16, 32K pages", go ~small_page:(32 * 1024) ~config_id:16);
         ("cfg 16, 16K pages", go ~small_page:(16 * 1024) ~config_id:16);
       ])
