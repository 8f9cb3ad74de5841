module Analyzer = Hcsgc_telemetry.Analyzer

let cycles_per_us = 3000

type report = {
  requests : int;
  gets : int;
  updates : int;
  scans : int;
  duration : int;
  throughput : float;
  mean : float;
  p50 : int;
  p95 : int;
  p99 : int;
  p999 : int;
  max_latency : int;
  slo : int;
  violations : int;
  pause_attributed : int;
  service_attributed : int;
  pause_cycles : int;
}

let analyze ~slo ~duration ~pauses (result : Serve.result) =
  if duration <= 0 then invalid_arg "Slo.analyze: duration must be positive";
  if slo < 0 then invalid_arg "Slo.analyze: slo must be non-negative";
  let requests = result.Serve.requests in
  let n = Array.length requests in
  let zero =
    {
      requests = n;
      gets = result.Serve.gets;
      updates = result.Serve.updates;
      scans = result.Serve.scans;
      duration;
      throughput = float_of_int n *. 1e6 /. float_of_int duration;
      mean = 0.0;
      p50 = 0;
      p95 = 0;
      p99 = 0;
      p999 = 0;
      max_latency = 0;
      slo;
      violations = 0;
      pause_attributed = 0;
      service_attributed = 0;
      pause_cycles = 0;
    }
  in
  if n = 0 then zero
  else begin
    let pauses = Array.of_list (Analyzer.coalesce pauses) in
    let latencies = Array.map (fun r -> r.Serve.latency) requests in
    let total = Array.fold_left ( + ) 0 latencies in
    Hcsgc_util.Int_sort.sort latencies;
    (* Busy-period pause attribution, per shard: pause overlap absorbed by
       a request's wall window carries to everything queued behind it; a
       request that starts with zero wait opens a fresh busy period. *)
    let mutators =
      1 + Array.fold_left (fun acc r -> Int.max acc r.Serve.mutator) 0 requests
    in
    let carry = Array.make mutators 0 in
    let violations = ref 0 in
    let pause_attributed = ref 0 in
    let service_attributed = ref 0 in
    let pause_cycles = ref 0 in
    Array.iter
      (fun (r : Serve.request) ->
        let m = r.Serve.mutator in
        if r.Serve.wait = 0 then carry.(m) <- 0;
        let own =
          Analyzer.overlap_sorted pauses ~window:(r.Serve.w0, r.Serve.w1)
        in
        if slo > 0 && r.Serve.latency > slo then begin
          incr violations;
          let charged = own + carry.(m) in
          if charged > 0 then begin
            incr pause_attributed;
            pause_cycles := !pause_cycles + charged
          end
          else incr service_attributed
        end;
        carry.(m) <- carry.(m) + own)
      requests;
    {
      zero with
      mean = float_of_int total /. float_of_int n;
      p50 = Analyzer.percentile_sorted latencies ~pct:50.0;
      p95 = Analyzer.percentile_sorted latencies ~pct:95.0;
      p99 = Analyzer.percentile_sorted latencies ~pct:99.0;
      p999 = Analyzer.percentile_sorted latencies ~pct:99.9;
      max_latency = max 0 latencies.(n - 1);
      violations = !violations;
      pause_attributed = !pause_attributed;
      service_attributed = !service_attributed;
      pause_cycles = !pause_cycles;
    }
  end

let histogram_buckets = 40

let histogram requests =
  let counts = Array.make histogram_buckets 0 in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  Array.iter
    (fun (r : Serve.request) ->
      let b = min (histogram_buckets - 1) (log2 (max 0 r.Serve.latency)) in
      counts.(b) <- counts.(b) + 1)
    requests;
  counts

let pp_histogram fmt counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then Format.fprintf fmt "(no requests)@."
  else begin
    let peak = Array.fold_left max 0 counts in
    Format.fprintf fmt "latency histogram (log2 buckets, %d requests):@." total;
    Array.iteri
      (fun i n ->
        if n > 0 then begin
          let lo = if i = 0 then 0 else 1 lsl i in
          let bar = String.make (max 1 (40 * n / peak)) '#' in
          Format.fprintf fmt "  [%9d, %9d) %7d %s@." lo (1 lsl (i + 1)) n bar
        end)
      counts
  end

let us c = float_of_int c /. float_of_int cycles_per_us

let pp fmt r =
  Format.fprintf fmt "== serve SLO report ==@\n";
  Format.fprintf fmt
    "requests: %d (%d get / %d update / %d scan) over %.1f Mcycles — %.1f \
     req/Mc served@\n"
    r.requests r.gets r.updates r.scans
    (float_of_int r.duration /. 1e6)
    r.throughput;
  Format.fprintf fmt
    "latency: mean=%.0fc p50=%dc p95=%dc p99=%dc p99.9=%dc max=%dc@\n" r.mean
    r.p50 r.p95 r.p99 r.p999 r.max_latency;
  Format.fprintf fmt
    "         (at 3 GHz: p50=%.2fus p99=%.2fus p99.9=%.2fus max=%.2fus)@\n"
    (us r.p50) (us r.p99) (us r.p999) (us r.max_latency);
  if r.slo = 0 then Format.fprintf fmt "SLO: not configured@\n"
  else
    Format.fprintf fmt
      "SLO %dc (%.0fus): %d violations (%.3f%%) — %d pause-attributed (%d \
       pause cycles absorbed), %d service-attributed@\n"
      r.slo (us r.slo) r.violations
      (100.0 *. float_of_int r.violations /. float_of_int (max 1 r.requests))
      r.pause_attributed r.pause_cycles r.service_attributed
