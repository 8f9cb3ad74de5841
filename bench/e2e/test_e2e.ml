(* Unit tests of the benchmark's pure parts: span self time, frame to
   layer mapping, percentiles, reference seconds, pinned-digest parsing
   and output formats. *)

let span ?(parent = -1) name start stop = { Trace.name; job = 0; parent; start; stop }

let self_of rows name =
  (List.find (fun r -> r.Trace.row_name = name) rows).Trace.self

let close = Alcotest.float 1e-9

let test_self_nested () =
  (* a [0,10] has b [1,4] and c [3,6], which overlap; b has d [2,3]. *)
  let rows =
    Trace.self_times
      [| span "a" 0. 10.; span ~parent:0 "b" 1. 4.; span ~parent:0 "c" 3. 6.;
         span ~parent:1 "d" 2. 3. |]
  in
  Alcotest.check close "a: union of b and c is 5" 5.0 (self_of rows "a");
  Alcotest.check close "b: minus d" 2.0 (self_of rows "b");
  Alcotest.check close "c: leaf" 3.0 (self_of rows "c");
  Alcotest.check close "d: leaf" 1.0 (self_of rows "d")

let test_self_clipped_and_aggregated () =
  (* A child running past its parent only counts inside the parent; rows
     aggregate every span of one name. *)
  let rows =
    Trace.self_times
      [| span "job" 0. 10.; span ~parent:0 "gc" 8. 12.; span "job" 20. 25.;
         span ~parent:2 "gc" 21. 22. |]
  in
  Alcotest.check close "job self" 12.0 (self_of rows "job");
  Alcotest.check close "gc self" 5.0 (self_of rows "gc");
  let job = List.find (fun r -> r.Trace.row_name = "job") rows in
  Alcotest.(check int) "job calls" 2 job.Trace.calls;
  Alcotest.check close "job total" 15.0 job.Trace.total;
  Alcotest.(check string) "largest self first" "job" (List.hd rows).Trace.row_name

let test_recorder () =
  let t = Trace.create () in
  Alcotest.(check int) "off: plain call" 3 (Trace.span t "x" (fun () -> 3));
  Alcotest.(check int) "off: nothing recorded" 0 (Trace.length t);
  Trace.set_on t true;
  Trace.set_job t 4;
  Trace.span t "outer" (fun () -> Trace.span t "inner" (fun () -> ()));
  let s = Trace.spans t in
  Alcotest.(check (list string)) "begin order" [ "outer"; "inner" ]
    (Array.to_list (Array.map (fun s -> s.Trace.name) s));
  Alcotest.(check int) "inner's parent" 0 s.(1).Trace.parent;
  Alcotest.(check int) "job id" 4 s.(1).Trace.job

let test_layer_of_file () =
  let check file want =
    Alcotest.(check (option string)) file want (Prof.layer_of_file file)
  in
  check "lib/heap/page.ml" (Some "heap");
  check "/src/_build/default/lib/memsim/cache.ml" (Some "memsim");
  check "lib/verify/oracle.ml" None;
  check "hashtbl.ml" None;
  check "/home/u/.opam/5.1.1/lib/ocaml/hashtbl.ml" None;
  check "bench/e2e/main.ml" None;
  check "lib/core" None

let test_classify () =
  Alcotest.(check string) "stdlib frame counts toward its caller" "heap"
    (Prof.classify [ "bench/e2e/prof.ml"; "hashtbl.ml"; "lib/heap/page.ml"; "lib/core/collector.ml" ]);
  Alcotest.(check string) "no lib frame" "other" (Prof.classify [ "bench/e2e/main.ml"; "digest.ml" ]);
  Prof.reset ();
  let shares = Prof.shares () in
  Alcotest.check close "shares sum to 1" 1.0 (List.fold_left (fun a (_, s) -> a +. s) 0.0 shares);
  Alcotest.check close "no samples: all other" 1.0 (List.assoc "other" shares)

let test_rank () =
  let check pct want =
    Alcotest.(check int) (Printf.sprintf "p%g of 10" pct) want (Report.rank ~n:10 ~pct)
  in
  check 50.0 5;
  check 90.0 9;
  check 99.0 10;
  check 100.0 10;
  check 1.0 1;
  Alcotest.(check int) "exact product is not rounded up" 99_990
    (Report.rank ~n:100_000 ~pct:99.99)

let test_reference_seconds () =
  Alcotest.check close "kernel at reference speed" 3.0 (Calib.reference ~kernel:0.1 3.0);
  Alcotest.check close "machine twice as slow" 3.0 (Calib.reference ~kernel:0.2 6.0)

let test_tail_rule () =
  let check n want = Alcotest.(check (option (float 0.0))) (string_of_int n) want (Report.tail_pct n) in
  check 100_000 (Some 99.99);
  check 10_000 (Some 99.9);
  check 9_999 (Some 99.0);
  check 1_000 (Some 99.0);
  check 100 (Some 90.0);
  check 20 (Some 50.0);
  check 19 None

let md5 c = String.make 32 c

let test_pins_parse () =
  let text =
    String.concat "\n"
      [ "# comment"; ""; "v1\tf4-sweep\t1\tcfg0\t" ^ md5 'a';
        "v1\tf4-sweep\t1\tcfg0\t" ^ md5 'a'; "v1\tf4-sweep\t7\tcfg0\t" ^ md5 'b'; "" ]
  in
  match Pins.parse text with
  | Error e -> Alcotest.fail e
  | Ok pins ->
      Alcotest.(check int) "duplicates fold" 2 (List.length pins);
      let check name want got = Alcotest.(check bool) name true (want = got) in
      let at ?(cv = "v1") seed job d =
        Pins.check pins ~code_version:cv ~workload:"f4-sweep" ~seed ~job d
      in
      check "match" Pins.Match (at 1 "cfg0" (md5 'a'));
      check "mismatch" (Pins.Mismatch (md5 'b')) (at 7 "cfg0" (md5 'a'));
      check "other code_version" Pins.Unpinned (at ~cv:"v2" 1 "cfg0" (md5 'b'));
      check "other seed" Pins.Unpinned (at 2 "cfg0" (md5 'a'));
      Alcotest.(check string) "line round trip" ("v1\tf4-sweep\t1\tcfg0\t" ^ md5 'a')
        (Pins.to_line (List.hd pins))

let test_pins_errors () =
  let fails name text =
    match Pins.parse text with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e -> Alcotest.(check bool) (name ^ ": " ^ e) true (String.starts_with ~prefix:"line " e)
  in
  fails "too few fields" "v1\tf4-sweep\t1\t" ;
  fails "bad digest" ("v1\tf4-sweep\t1\tcfg0\t" ^ String.make 31 'a');
  fails "upper-case digest" ("v1\tf4-sweep\t1\tcfg0\t" ^ md5 'A');
  fails "bad seed" ("v1\tf4-sweep\tx\tcfg0\t" ^ md5 'a');
  fails "conflict"
    ("v1\tw\t1\tj\t" ^ md5 'a' ^ "\nv1\tw\t1\tj\t" ^ md5 'b')

let test_formats () =
  Alcotest.(check string) "metric line"
    "  wall_s                                        2.5 s"
    (Report.metric_line ("wall_s", 2.5, "s"));
  Alcotest.(check string) "all digits" "  x                                  0.333333333333 1"
    (Report.metric_line ("x", 1.0 /. 3.0, "1"));
  Alcotest.(check string) "result json"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": \
     {\"value\": 2.5, \"unit\": \"s\"}, \"n\": {\"value\": 7, \"unit\": \"count\"}}}"
    (Report.result_json ~correct:true ~attempted:3 ~failed:0
       [ ("wall_s", 2.5, "s"); ("n", 7.0, "count") ]);
  Alcotest.check_raises "non-finite values are refused"
    (Invalid_argument "Report.number: non-finite metric value") (fun () ->
      ignore (Report.metric_line ("x", nan, "1")))

let () =
  Alcotest.run "bench-e2e"
    [
      ( "trace",
        [ Alcotest.test_case "self time, nested and overlapping" `Quick test_self_nested;
          Alcotest.test_case "self time, clipped and aggregated" `Quick
            test_self_clipped_and_aggregated;
          Alcotest.test_case "recorder" `Quick test_recorder ] );
      ( "prof",
        [ Alcotest.test_case "frame file to layer" `Quick test_layer_of_file;
          Alcotest.test_case "stack to layer, shares" `Quick test_classify ] );
      ( "report",
        [ Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "tail percentile sample rule" `Quick test_tail_rule;
          Alcotest.test_case "reference seconds" `Quick test_reference_seconds;
          Alcotest.test_case "metric line and result formats" `Quick test_formats ] );
      ( "pins",
        [ Alcotest.test_case "parse and check" `Quick test_pins_parse;
          Alcotest.test_case "malformed lines" `Quick test_pins_errors ] );
    ]
