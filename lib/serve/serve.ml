module Vm = Hcsgc_runtime.Vm
module Rng = Hcsgc_util.Rng
module Keydist = Hcsgc_workloads.Keydist
module Recorder = Hcsgc_telemetry.Recorder

type kind = Get | Update | Scan

type mix = { gets : int; updates : int; scans : int; scan_len : int }

type params = {
  keys : int;
  value_words : int;
  mutators : int;
  dist : Keydist.spec;
  mix : mix;
  process : Arrival.process;
  load : float;
  duration : int;
  seed : int;
}

type request = {
  arrival : int;
  mutator : int;
  kind : kind;
  wait : int;
  service : int;
  stall : int;
  latency : int;
  w0 : int;
  w1 : int;
}

type result = {
  requests : request array;
  gets : int;
  updates : int;
  scans : int;
  checksum : int;
}

let default =
  {
    keys = 20_000;
    value_words = 16;
    mutators = 4;
    dist = Keydist.Zipfian { theta = 0.99 };
    mix = { gets = 60; updates = 35; scans = 5; scan_len = 32 };
    process = Arrival.Constant;
    load = 400.0;
    duration = 50_000_000;
    seed = 0;
  }

let validate p =
  if p.keys <= 0 then invalid_arg "Serve.run: keys must be positive";
  if p.value_words <= 0 then
    invalid_arg "Serve.run: value_words must be positive";
  if p.mutators <= 0 then invalid_arg "Serve.run: mutators must be positive";
  if p.mix.gets < 0 || p.mix.updates < 0 || p.mix.scans < 0 then
    invalid_arg "Serve.run: negative mix percentage";
  if p.mix.gets + p.mix.updates + p.mix.scans <> 100 then
    invalid_arg "Serve.run: mix percentages must sum to 100";
  if p.mix.scans > 0 && p.mix.scan_len <= 0 then
    invalid_arg "Serve.run: scan_len must be positive"

let span_name = function
  | Get -> "req:get"
  | Update -> "req:update"
  | Scan -> "req:scan"

let run vm p =
  validate p;
  let m_count = max 1 (min p.mutators (Vm.mutator_count vm)) in
  (* Keys with [k mod m_count = m], i.e. shard m's slot count. *)
  let shard_size m =
    if m >= p.keys then 0 else (p.keys - m + m_count - 1) / m_count
  in
  let rng = Rng.create p.seed in
  let dist = Keydist.create p.dist ~key_space:p.keys in
  let recorder = Vm.telemetry vm in
  (* Prepopulate: per-mutator index arrays under one root, every slot
     filled, so the serving phase never misses. *)
  Vm.span_begin vm "serve:load";
  let root = Vm.alloc vm ~nrefs:m_count ~nwords:0 in
  Vm.add_root vm root;
  let index =
    Array.init m_count (fun m ->
        let idx = Vm.alloc ~m vm ~nrefs:(max 1 (shard_size m)) ~nwords:0 in
        Vm.store_ref vm root m (Some idx);
        idx)
  in
  for k = 0 to p.keys - 1 do
    let m = k mod m_count in
    let e = Vm.alloc ~m vm ~nrefs:0 ~nwords:(1 + p.value_words) in
    Vm.store_word ~m vm e 0 k;
    for w = 1 to p.value_words do
      Vm.store_word ~m vm e w (k + w)
    done;
    Vm.store_ref ~m vm index.(m) (k / m_count) (Some e)
  done;
  Vm.span_end vm;
  (* Serve: fixed arrival timeline, requests executed back to back on the
     simulated machine, latencies from per-shard virtual-time queues. *)
  Vm.span_begin vm "serve:drive";
  let arrivals =
    Arrival.create p.process ~rate:p.load ~duration:p.duration
      ~seed:(p.seed + 1)
  in
  let free_at = Array.make m_count 0 in
  (* The timeline is a pure function of its seed: count it first, so the
     request log is built at its final length. *)
  let count =
    let a =
      Arrival.create p.process ~rate:p.load ~duration:p.duration
        ~seed:(p.seed + 1)
    in
    let rec go n = match Arrival.next a with None -> n | Some _ -> go (n + 1) in
    go 0
  in
  let requests =
    Array.make count
      { arrival = 0; mutator = 0; kind = Get; wait = 0; service = 0;
        stall = 0; latency = 0; w0 = 0; w1 = 0 }
  in
  let gets = ref 0 and updates = ref 0 and scans = ref 0 in
  let checksum = ref 0 in
  let rec loop i =
    match Arrival.next arrivals with
    | None -> ()
    | Some arrival ->
        let roll = Rng.int rng 100 in
        let kind =
          if roll < p.mix.gets then Get
          else if roll < p.mix.gets + p.mix.updates then Update
          else Scan
        in
        let key = Keydist.sample dist rng in
        let m = key mod m_count in
        let slot = key / m_count in
        let w0 = Vm.wall_cycles vm in
        let t0 = Vm.mutator_clock vm ~m in
        let stw0 = Vm.stw_cycles vm in
        (match kind with
        | Get ->
            incr gets;
            let e = Option.get (Vm.load_ref ~m vm index.(m) slot) in
            for w = 1 to p.value_words do
              checksum := !checksum lxor Vm.load_word ~m vm e w
            done
        | Update ->
            incr updates;
            let e = Vm.alloc ~m vm ~nrefs:0 ~nwords:(1 + p.value_words) in
            Vm.store_word ~m vm e 0 key;
            for w = 1 to p.value_words do
              Vm.store_word ~m vm e w (key + w + !updates)
            done;
            Vm.store_ref ~m vm index.(m) slot (Some e)
        | Scan ->
            incr scans;
            let size = shard_size m in
            for j = 0 to p.mix.scan_len - 1 do
              let s = (slot + j) mod size in
              let e = Option.get (Vm.load_ref ~m vm index.(m) s) in
              checksum := !checksum lxor Vm.load_word ~m vm e 1
            done);
        let t1 = Vm.mutator_clock vm ~m in
        let w1 = Vm.wall_cycles vm in
        let service = t1 - t0 in
        (* An STW pause during execution stops the serving thread too: it
           stretches this request and everything queued behind it.  The
           STW-cycle delta is read from the VM directly so latencies do
           not depend on whether telemetry is attached. *)
        let stall = Vm.stw_cycles vm - stw0 in
        let start = max arrival free_at.(m) in
        free_at.(m) <- start + service + stall;
        let wait = start - arrival in
        let latency = wait + service + stall in
        (match recorder with
        | Some r ->
            Recorder.complete_span r (Recorder.Mutator m)
              ~name:(span_name kind) ~wall:w0 ~dur:(w1 - w0)
              ~args:
                [ ("arrival", arrival); ("wait", wait); ("stall", stall);
                  ("latency", latency) ]
        | None -> ());
        requests.(i) <-
          { arrival; mutator = m; kind; wait; service; stall; latency; w0; w1 };
        loop (i + 1)
  in
  loop 0;
  Vm.span_end vm;
  Vm.remove_root vm root;
  {
    requests;
    gets = !gets;
    updates = !updates;
    scans = !scans;
    checksum = !checksum;
  }

let params_key p =
  Keydist.validate p.dist ~key_space:p.keys;
  Printf.sprintf
    "serve(keys=%d,vw=%d,mut=%d,dist=%s,mix=%d/%d/%d x%d,proc=%s,load=%h,dur=%d,seed=%d)"
    p.keys p.value_words p.mutators
    (Keydist.spec_key p.dist)
    p.mix.gets p.mix.updates p.mix.scans p.mix.scan_len
    (Arrival.process_key p.process)
    p.load p.duration p.seed
