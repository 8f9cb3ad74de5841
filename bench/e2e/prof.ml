(* Sampled self-time ledger: which library layer the host CPU is in.

   A 1 ms ITIMER_PROF timer raises SIGPROF; the handler takes the OCaml
   call stack and credits one sample to the innermost frame whose source
   file lies under lib/<layer>/.  Frames elsewhere (the stdlib, this
   benchmark) are skipped, so a Hashtbl operation called from
   lib/heap/page.ml counts toward heap.  A stack with no such frame counts
   as "other".  Every sample lands in exactly one bucket, so the shares
   sum to 1.

   Bias: OCaml runs signal handlers only at its poll points (allocations,
   function entries, loop back-edges), so a sample is credited to the
   next poll point after the timer fired, not to the exact instruction;
   long stretches of C code (Digest, I/O) are credited to the OCaml frame
   that called them. *)

(* The library directories under lib/ that the benchmark's workloads
   exercise; frames of other directories are skipped like stdlib ones. *)
let layers =
  [ "memsim"; "heap"; "core"; "runtime"; "workloads"; "graph"; "serve";
    "telemetry"; "store"; "experiments"; "util" ]

let layer_of_file file =
  let rec find = function
    | "lib" :: layer :: _ :: _ when List.mem layer layers -> Some layer
    | _ :: rest -> find rest
    | [] -> None
  in
  find (String.split_on_char '/' file)

let classify files =
  match List.find_map layer_of_file files with Some l -> l | None -> "other"

let buckets = "other" :: layers
let counts : (string, int) Hashtbl.t = Hashtbl.create 16

let reset () = Hashtbl.reset counts

let record () =
  let files =
    match Printexc.backtrace_slots (Printexc.get_callstack 48) with
    | None -> []
    | Some slots ->
        Array.to_list slots
        |> List.filter_map (fun s ->
               Option.map
                 (fun l -> l.Printexc.filename)
                 (Printexc.Slot.location s))
  in
  let l = classify files in
  Hashtbl.replace counts l (1 + Option.value (Hashtbl.find_opt counts l) ~default:0)

let timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval })

let start () =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> record ()));
  timer 0.001

let stop () =
  timer 0.0;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let samples () = Hashtbl.fold (fun _ n acc -> acc + n) counts 0

(* Share of each bucket, in [buckets] order; with no samples at all,
   everything is "other". *)
let shares () =
  let total = samples () in
  List.map
    (fun l ->
      let n = Option.value (Hashtbl.find_opt counts l) ~default:0 in
      ( l,
        if total = 0 then if l = "other" then 1.0 else 0.0
        else float_of_int n /. float_of_int total ))
    buckets
