(* Statistics and output formats of the benchmark. *)

(* Nearest rank: the smallest sample with at least [pct]% of the samples
   at or below it is the [rank]-th smallest, the convention of
   [Analyzer.percentile].  The epsilon keeps an exact product such as
   99.99% of 100000 from rounding up a rank. *)
let rank ~n ~pct =
  max 1 (int_of_float (Float.ceil ((pct *. float_of_int n /. 100.0) -. 1e-9)))

(* The highest reported percentile that still has at least ten samples
   beyond it, so a tail figure never rests on a handful of requests. *)
let tail_ladder = [ 99.99; 99.9; 99.0; 90.0; 50.0 ]

let tail_pct n =
  List.find_opt (fun pct -> n - rank ~n ~pct >= 10) tail_ladder

let ratio a b = if b = 0.0 then 0.0 else a /. b

let number v =
  if Float.is_finite v then Printf.sprintf "%.12g" v
  else invalid_arg "Report.number: non-finite metric value"

(* One human-readable metric line: name, value with all its digits, unit. *)
let metric_line (name, value, unit) =
  Printf.sprintf "  %-30s %18s %s" name (number value) unit

(* The machine-readable result: the last line of standard output. *)
let result_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
