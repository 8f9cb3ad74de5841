module Int_sort = Hcsgc_util.Int_sort

type pause_stats = {
  count : int;
  total : int;
  p50 : int;
  p95 : int;
  p99 : int;
  p999 : int;
  max : int;
}

let check_pct name pct =
  if pct <= 0.0 || pct > 100.0 then
    invalid_arg (name ^ ": pct outside (0, 100]")

(* Nearest rank ⌈pct/100 × n⌉ of a sorted, non-empty array, nudged below
   the float division's upward rounding so an exactly-integral rank (99.9%
   of 1000 = 999) is not bumped to the next sample. *)
let nearest_rank arr ~pct =
  let n = Array.length arr in
  let rank = int_of_float (ceil ((pct /. 100.0 *. float_of_int n) -. 1e-9)) in
  arr.(max 0 (min (n - 1) (rank - 1)))

let percentile_sorted arr ~pct =
  if Array.length arr = 0 then
    invalid_arg "Analyzer.percentile_sorted: empty array";
  check_pct "Analyzer.percentile_sorted" pct;
  nearest_rank arr ~pct

let percentile xs ~pct =
  if xs = [] then invalid_arg "Analyzer.percentile: empty list";
  check_pct "Analyzer.percentile" pct;
  let arr = Array.of_list xs in
  Int_sort.sort arr;
  nearest_rank arr ~pct

(* STW pause slices are the GC track's slices named "Pause ...". *)
let pause_intervals r =
  Recorder.fold_spans r ~init:[]
    (fun acc track kind ~name ~start ~stop ~args:_ ->
      match (track, kind) with
      | Recorder.Gc, Recorder.Slice
        when String.starts_with ~prefix:"Pause " name ->
          (start, stop) :: acc
      | _ -> acc)
  |> List.rev

let pause_durations r =
  List.map (fun (start, stop) -> stop - start) (pause_intervals r)

let pause_stats r =
  match pause_durations r with
  | [] -> { count = 0; total = 0; p50 = 0; p95 = 0; p99 = 0; p999 = 0; max = 0 }
  | ds ->
      let arr = Array.of_list ds in
      Int_sort.sort arr;
      let n = Array.length arr in
      {
        count = n;
        total = Array.fold_left ( + ) 0 arr;
        p50 = nearest_rank arr ~pct:50.0;
        p95 = nearest_rank arr ~pct:95.0;
        p99 = nearest_rank arr ~pct:99.0;
        p999 = nearest_rank arr ~pct:99.9;
        max = max 0 arr.(n - 1);
      }

(* Coalesce overlapping/touching intervals so summed window overlap never
   exceeds the window.  Simulated pauses can share a wall stamp (the wall
   hint only advances at mutator pumps), so overlap is not hypothetical. *)
let compare_intervals (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

let merge_intervals pauses =
  let rec go = function
    | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 -> go ((a1, max b1 b2) :: rest)
    | iv :: rest -> iv :: go rest
    | [] -> []
  in
  go (List.sort compare_intervals (List.filter (fun (a, b) -> b > a) pauses))

let coalesce = merge_intervals

(* Overlap of one window with a set of intervals.  Coalescing first keeps
   the sum honest when intervals overlap each other (simulated pauses can
   share a wall stamp), so the result never exceeds the window width. *)
let overlap ~window:(w0, w1) intervals =
  List.fold_left
    (fun acc (a, b) -> acc + max 0 (min b w1 - max a w0))
    0 (merge_intervals intervals)

(* Coalesced intervals are sorted and disjoint, so their stops ascend too:
   binary-search the first interval ending after [w0], then sum until one
   starts at or after [w1]. *)
let overlap_sorted ivs ~window:(w0, w1) =
  let lo = ref 0 and hi = ref (Array.length ivs) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if snd ivs.(mid) > w0 then hi := mid else lo := mid + 1
  done;
  let acc = ref 0 and i = ref !lo in
  while !i < Array.length ivs && fst ivs.(!i) < w1 do
    let a, b = ivs.(!i) in
    acc := !acc + Int.max 0 (Int.min b w1 - Int.max a w0);
    incr i
  done;
  !acc

let mmu ~window ~total ~pauses =
  if window <= 0 then invalid_arg "Analyzer.mmu: window must be positive";
  if total <= 0 then 1.0
  else begin
    let window = min window total in
    let pauses = merge_intervals pauses in
    let overlap at =
      List.fold_left
        (fun acc (start, stop) ->
          acc + max 0 (min stop (at + window) - max start at))
        0 pauses
    in
    (* The worst window starts at a pause start or ends at a pause stop;
       checking those anchors (clamped into range) covers the minimum. *)
    let anchors =
      0
      :: List.concat_map (fun (start, stop) -> [ start; stop - window ]) pauses
      |> List.map (fun at -> max 0 (min at (total - window)))
    in
    let worst = List.fold_left (fun acc at -> max acc (overlap at)) 0 anchors in
    float_of_int (window - worst) /. float_of_int window
  end

let last_wall r =
  Recorder.fold_spans r ~init:0 (fun acc _ _ ~name:_ ~start:_ ~stop ~args:_ ->
      max acc stop)

let mmu_of r ~window =
  mmu ~window ~total:(last_wall r) ~pauses:(pause_intervals r)

type attribution_point = {
  cycle : int;
  wall : int;
  reloc_mutator : int;
  reloc_gc : int;
  reloc_bytes : int;
}

let cycle_of_name name = Scanf.sscanf_opt name "GC(%d)" (fun n -> n)

let attribution r =
  let samples = Recorder.samples r in
  if samples = [] then []
  else begin
    (* Last sample at-or-before [w]; the VM samples at every cycle start,
       so this is exact at epoch edges. *)
    let at w =
      let rec go best = function
        | [] -> best
        | (s : Recorder.sample) :: rest ->
            if s.Recorder.wall <= w then go (Some s) rest else best
      in
      match go None samples with
      | Some s -> s
      | None -> List.hd samples
    in
    let final = List.nth samples (List.length samples - 1) in
    let starts =
      Recorder.fold_spans r ~init:[]
        (fun acc track kind ~name ~start ~stop:_ ~args:_ ->
          match (track, kind) with
          | Recorder.Gc, Recorder.Slice -> (
              match cycle_of_name name with
              | Some n -> (n, start) :: acc
              | None -> acc)
          | _ -> acc)
      |> List.sort compare_intervals
    in
    let rec epochs = function
      | [] -> []
      | [ (cycle, start) ] -> [ (cycle, start, at start, final) ]
      | (cycle, start) :: ((_, next) :: _ as rest) ->
          (cycle, start, at start, at next) :: epochs rest
    in
    List.map
      (fun (cycle, wall, (s0 : Recorder.sample), (s1 : Recorder.sample)) ->
        {
          cycle;
          wall;
          reloc_mutator = s1.Recorder.reloc_mutator - s0.Recorder.reloc_mutator;
          reloc_gc = s1.Recorder.reloc_gc - s0.Recorder.reloc_gc;
          reloc_bytes = s1.Recorder.reloc_bytes - s0.Recorder.reloc_bytes;
        })
      (epochs starts)
  end
