let mmu_windows = [ 10_000; 100_000; 1_000_000 ]

(* Aggregate slice time by (track, name), like perf report's symbol rows. *)
let rows r =
  let tbl = Hashtbl.create 32 in
  let order =
    Recorder.fold_spans r ~init:[]
      (fun order track kind ~name ~start ~stop ~args:_ ->
        match kind with
        | Recorder.Instant -> order
        | Recorder.Slice -> (
            let key = (track, name) in
            let dur = stop - start in
            match Hashtbl.find_opt tbl key with
            | Some (n, total) ->
                Hashtbl.replace tbl key (n + 1, total + dur);
                order
            | None ->
                Hashtbl.replace tbl key (1, dur);
                key :: order))
  in
  List.rev_map (fun key -> (key, Hashtbl.find tbl key)) order
  |> List.sort (fun ((_, _), (_, t1)) ((_, _), (_, t2)) -> compare t2 t1)

let write fmt r =
  let nspans =
    Recorder.fold_spans r ~init:0 (fun n _ _ ~name:_ ~start:_ ~stop:_ ~args:_ ->
        n + 1)
  in
  let samples = Recorder.samples r in
  let wall =
    List.fold_left (fun acc (s : Recorder.sample) -> max acc s.Recorder.wall)
      (Analyzer.last_wall r) samples
  in
  Format.fprintf fmt "== hcsgc telemetry summary ==@\n";
  Format.fprintf fmt "wall: %d simulated cycles@\n" wall;
  Format.fprintf fmt "spans: %d recorded, %d dropped; samples: %d recorded, %d dropped@\n"
    nspans (Recorder.dropped_spans r) (List.length samples)
    (Recorder.dropped_samples r);
  (* STW pauses. *)
  let ps = Analyzer.pause_stats r in
  Format.fprintf fmt "@\n-- STW pauses --@\n";
  if ps.Analyzer.count = 0 then Format.fprintf fmt "none recorded@\n"
  else begin
    Format.fprintf fmt "count=%d total=%dc (%.2f%% of wall)@\n" ps.Analyzer.count
      ps.Analyzer.total
      (100.0 *. float_of_int ps.Analyzer.total /. float_of_int (max 1 wall));
    Format.fprintf fmt "p50=%dc p95=%dc p99=%dc p99.9=%dc max=%dc@\n"
      ps.Analyzer.p50 ps.Analyzer.p95 ps.Analyzer.p99 ps.Analyzer.p999
      ps.Analyzer.max;
    Format.fprintf fmt "MMU:";
    List.iter
      (fun w ->
        Format.fprintf fmt " %dk=%.4f" (w / 1000) (Analyzer.mmu_of r ~window:w))
      mmu_windows;
    Format.fprintf fmt "@\n"
  end;
  (* Span totals, perf-report style. *)
  Format.fprintf fmt "@\n-- time by span (simulated cycles) --@\n";
  List.iter
    (fun ((track, name), (count, total)) ->
      Format.fprintf fmt "%7.2f%%  %12d  %5dx  [%s] %s@\n"
        (100.0 *. float_of_int total /. float_of_int (max 1 wall))
        total count
        (match track with
        | Recorder.Gc -> "gc"
        | Recorder.Mutator m -> Printf.sprintf "mut%d" m)
        name)
    (rows r);
  (* Relocation attribution per cycle. *)
  let attr = Analyzer.attribution r in
  Format.fprintf fmt "@\n-- relocation attribution (per GC epoch) --@\n";
  if attr = [] then Format.fprintf fmt "none recorded@\n"
  else
    List.iter
      (fun (a : Analyzer.attribution_point) ->
        Format.fprintf fmt
          "GC(%d) @@ %d: mutator=%d gc=%d objects, %d bytes@\n"
          a.Analyzer.cycle a.Analyzer.wall a.Analyzer.reloc_mutator
          a.Analyzer.reloc_gc a.Analyzer.reloc_bytes)
      attr;
  (* Final counter totals. *)
  (match List.rev samples with
  | [] -> ()
  | (s : Recorder.sample) :: _ ->
      Format.fprintf fmt "@\n-- counters (final sample, cumulative) --@\n";
      Format.fprintf fmt "heap_used=%d hot_bytes=%d@\n" s.Recorder.heap_used
        s.Recorder.hot_bytes;
      Format.fprintf fmt "loads=%d stores=%d l1_misses=%d l2_misses=%d llc_misses=%d@\n"
        s.Recorder.loads s.Recorder.stores s.Recorder.l1_misses
        s.Recorder.l2_misses s.Recorder.llc_misses;
      Format.fprintf fmt "barrier fast=%d slow=%d; relocated mutator=%d gc=%d (%d bytes)@\n"
        s.Recorder.barrier_fast s.Recorder.barrier_slow s.Recorder.reloc_mutator
        s.Recorder.reloc_gc s.Recorder.reloc_bytes;
      Format.fprintf fmt "far_loads=%d@\n" s.Recorder.far_loads)

(* Result-store counters, rendered here so every surface (bench sweep
   footers, profile summaries) prints cache activity the same way.  Takes
   plain ints: telemetry stays independent of hcsgc.store. *)
let store_line ~dir ~hits ~misses ~corrupt ~stored ~bytes_read ~bytes_written =
  let kib b = float_of_int b /. 1024.0 in
  Printf.sprintf
    "result store: %d hits, %d misses (%d corrupt), %d stored, %.1f KiB \
     read, %.1f KiB written at %s"
    hits misses corrupt stored (kib bytes_read) (kib bytes_written) dir

let to_string r =
  let buf = Buffer.create 2048 in
  let fmt = Format.formatter_of_buffer buf in
  write fmt r;
  Format.pp_print_flush fmt ();
  Buffer.contents buf
