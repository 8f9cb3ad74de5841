(* Host-time spans, kept in memory and written out when the run ends.

   A span is one call the benchmark makes into a library layer, stamped
   with host wall-clock seconds.  Spans nest through [parent] (an index
   into the recorder's span list, -1 at top level); [job] is the index of
   the job the span belongs to (-1 outside jobs).  The recorder is off by
   default, and then [span] is a direct call. *)

type span = {
  name : string;
  job : int;
  parent : int;
  start : float;
  mutable stop : float;
}

type t = {
  mutable on : bool;
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;  (* open spans, innermost first *)
  mutable job : int;
}

let create () = { on = false; spans = [||]; len = 0; stack = []; job = -1 }
let now = Unix.gettimeofday

let push t s =
  if t.len = Array.length t.spans then begin
    let grown = Array.make (max 256 (2 * t.len)) s in
    Array.blit t.spans 0 grown 0 t.len;
    t.spans <- grown
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

let parent t = match t.stack with i :: _ -> i | [] -> -1

let span t name f =
  if not t.on then f ()
  else begin
    let i = push t { name; job = t.job; parent = parent t; start = now (); stop = nan } in
    t.stack <- i :: t.stack;
    Fun.protect f ~finally:(fun () ->
        t.spans.(i).stop <- now ();
        t.stack <- List.tl t.stack)
  end

(* A span whose interval was measured elsewhere (the collector phase-hook
   windows), attached under the currently open span. *)
let add t name ~start ~stop =
  if t.on then
    ignore (push t { name; job = t.job; parent = parent t; start; stop })

let set_on t on = t.on <- on
let set_job t job = t.job <- job
let length t = t.len
let spans t = Array.sub t.spans 0 t.len

(* Total length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec sum acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
        match cur with
        | Some (ca, cb) when a <= cb -> sum acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> sum (acc +. (cb -. ca)) (Some (a, b)) rest
        | None -> sum acc (Some (a, b)) rest)
  in
  sum 0.0 None clipped

type self_row = { row_name : string; calls : int; total : float; self : float }

(* Self time of each span: its duration minus the part of it that its
   children cover (children may overlap each other; the union counts
   once).  Aggregated per span name, largest self time first. *)
let self_times spans =
  let n = Array.length spans in
  let children = Array.make n [] in
  Array.iter
    (fun s ->
      if s.parent >= 0 && s.parent < n then
        children.(s.parent) <- (s.start, s.stop) :: children.(s.parent))
    spans;
  let rows = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let dur = s.stop -. s.start in
      let self = dur -. covered ~lo:s.start ~hi:s.stop children.(i) in
      let calls, total, self_sum =
        Option.value (Hashtbl.find_opt rows s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace rows s.name (calls + 1, total +. dur, self_sum +. self))
    spans;
  Hashtbl.fold
    (fun row_name (calls, total, self) acc -> { row_name; calls; total; self } :: acc)
    rows []
  |> List.sort (fun a b -> compare (b.self, a.row_name) (a.self, b.row_name))

let self_table rows =
  let b = Buffer.create 512 in
  Buffer.add_string b "span\tcalls\ttotal_s\tself_s\n";
  List.iter
    (fun r -> Printf.bprintf b "%s\t%d\t%.6f\t%.6f\n" r.row_name r.calls r.total r.self)
    rows;
  Buffer.contents b

(* Chrome trace-event JSON (load in chrome://tracing or Perfetto);
   timestamps in microseconds from the first span. *)
let chrome_json spans =
  let t0 = Array.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"job\":%d,\"parent\":%d}}"
        s.name
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.job s.parent)
    spans;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
