module Config = Hcsgc_core.Config
module Render = Hcsgc_stats.Render
module Bootstrap = Hcsgc_stats.Bootstrap

type variant = string * Runner.experiment * Config.t

let prefetcher_variants ~scale =
  let on = Fig_synthetic.experiment ~scale ()
  and off = Fig_synthetic.experiment ~prefetch:false ~scale () in
  [
    ("zgc, prefetch on", on, Config.of_id 0);
    ("cfg 16, prefetch on", on, Config.of_id 16);
    ("zgc, prefetch off", off, Config.of_id 0);
    ("cfg 16, prefetch off", off, Config.of_id 16);
  ]

let tlb_variants ~scale =
  let exp = Fig_synthetic.experiment ~tlb:true ~scale () in
  [
    ("zgc, tlb on", exp, Config.of_id 0);
    ("cfg 16, tlb on", exp, Config.of_id 16);
  ]

let autotuner_variants ~scale =
  let fixed = Fig_synthetic.experiment ~scale ()
  and tuned = Fig_synthetic.experiment ~autotune:true ~scale () in
  let lazy_cc cold_confidence =
    Config.make ~hotness:true ~cold_confidence ~lazy_relocate:true ()
  in
  [
    ("fixed cc=0.0 (+lazy)", fixed, lazy_cc 0.0);
    ("fixed cc=0.5 (+lazy)", fixed, lazy_cc 0.5);
    ("fixed cc=1.0 (+lazy)", fixed, lazy_cc 1.0);
    ("autotuned (+lazy)", tuned, lazy_cc 0.0);
  ]

(* §3.4 / §4.8: smaller pages mean finer relocation granularity — EC
   selection can isolate hot objects more precisely, at the cost of more
   page bookkeeping. *)
let page_size_variants ~scale =
  let pages small_page = Fig_synthetic.experiment ~small_page ~scale () in
  [
    ("zgc, 64K pages", pages (64 * 1024), Config.of_id 0);
    ("cfg 16, 64K pages", pages (64 * 1024), Config.of_id 16);
    ("cfg 16, 32K pages", pages (32 * 1024), Config.of_id 16);
    ("cfg 16, 16K pages", pages (16 * 1024), Config.of_id 16);
  ]

let variants ~scale =
  [
    ("prefetcher", prefetcher_variants ~scale);
    ("tlb", tlb_variants ~scale);
    ("autotuner", autotuner_variants ~scale);
    ("page_size", page_size_variants ~scale);
  ]

let tasks ~runs variants =
  Array.concat
    (List.map
       (fun (name, exp, config) ->
         Runner.tasks ~runs ~key:exp.Runner.key (Runner.measure exp)
           [ ("ablation: " ^ name, config) ])
       variants)

(* The walls come back in task order, so each variant bootstraps its
   seed-ordered samples. *)
let plan ~runs variants render =
  let rows ms =
    List.map
      (fun ((name, _, _), ms) ->
        let walls = Array.map (fun m -> m.Runner.wall) ms in
        (name, Bootstrap.estimate ~seed:42 walls))
      (Runner.chunks variants ~size:runs ms)
  in
  Runner.Plan
    {
      tasks = tasks ~runs variants;
      encode = Runner.metrics_to_string;
      decode = Runner.metrics_of_string;
      render = (fun ms -> render (rows ms));
    }

let table ~title ~note rows fmt =
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

let prefetcher ~runs ~scale =
  plan ~runs (prefetcher_variants ~scale) (fun rows fmt ->
      table ~title:"hardware prefetching"
        ~note:
          "expectation: HCSGC's win shrinks substantially without the stream \
           prefetcher — access-order layout pays off mainly by making \
           prefetching effective"
        rows fmt;
      (* Also print the win with/without prefetching explicitly. *)
      match rows with
      | [ (_, on0); (_, on16); (_, off0); (_, off16) ] ->
          let win a b = Bootstrap.relative_to ~baseline:a b in
          Format.fprintf fmt "HCSGC win with prefetch: %s; without: %s@.@."
            (Render.pct (win on0 on16))
            (Render.pct (win off0 off16))
      | _ -> ())

let tlb ~runs ~scale =
  plan ~runs (tlb_variants ~scale)
    (table ~title:"dTLB pressure"
       ~note:
         "expectation: with the dTLB model on, HCSGC's packing of hot objects \
          onto fewer pages also cuts page walks (the page-locality effect)")

let autotuner ~runs ~scale =
  plan ~runs (autotuner_variants ~scale)
    (table ~title:"COLDCONFIDENCE feedback loop (§4.8 future work)"
       ~note:
         "expectation: the autotuner approaches the best fixed setting \
          without being told it")

let page_size ~runs ~scale =
  plan ~runs (page_size_variants ~scale)
    (table ~title:"page size class granularity (§3.4 future work)"
       ~note:
         "expectation: under cfg 16 (WLB selection), smaller pages excavate \
          hot objects more precisely; the baseline is largely insensitive")
