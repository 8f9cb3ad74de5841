type task = unit -> unit

type t = {
  jobs : int;
  mutex : Mutex.t;
  wake : Condition.t;  (* signalled on push and on close *)
  queue : task Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

(* HCSGC_JOBS overrides the clamp — the escape hatch for CI runners and
   big machines.  Malformed or non-positive values fall back silently so a
   stray environment variable can never break a run. *)
let default_jobs () =
  let fallback () = max 1 (min 16 (Domain.recommended_domain_count ())) in
  match Sys.getenv_opt "HCSGC_JOBS" with
  | None -> fallback ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> fallback ())

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a promise = {
  pm : Mutex.t;
  pc : Condition.t;
  mutable state : 'a state;
}

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.wake t.mutex
  done;
  match Queue.take_opt t.queue with
  | None ->
      (* closed and drained *)
      Mutex.unlock t.mutex
  | Some task ->
      Mutex.unlock t.mutex;
      task ();
      worker_loop t

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
    }
  in
  if jobs > 1 then
    t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let settle p state =
  Mutex.lock p.pm;
  p.state <- state;
  Condition.broadcast p.pc;
  Mutex.unlock p.pm

let run_task f p =
  let state =
    try Done (f ()) with e -> Failed (e, Printexc.get_raw_backtrace ())
  in
  settle p state

let async t f =
  let p = { pm = Mutex.create (); pc = Condition.create (); state = Pending } in
  if t.jobs <= 1 then begin
    (* Sequential path: no domains, execute on the submitting domain now. *)
    if t.closed then invalid_arg "Pool.async: pool is shut down";
    run_task f p
  end
  else begin
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.async: pool is shut down"
    end;
    Queue.push (fun () -> run_task f p) t.queue;
    Condition.signal t.wake;
    Mutex.unlock t.mutex
  end;
  p

let await p =
  Mutex.lock p.pm;
  while (match p.state with Pending -> true | _ -> false) do
    Condition.wait p.pc p.pm
  done;
  let state = p.state in
  Mutex.unlock p.pm;
  match state with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let map_array_in_order t ~order f xs =
  let n = Array.length xs in
  if Array.length order <> n then
    invalid_arg "Pool.map_array_in_order: order length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then
        invalid_arg "Pool.map_array_in_order: order is not a permutation";
      seen.(i) <- true)
    order;
  (* Submit in the caller's order (this is what a scheduler controls),
     hold each promise at its original index, then await in index order:
     the result array is in input order whatever the submission order. *)
  let promises = Array.make n None in
  Array.iter (fun i -> promises.(i) <- Some (async t (fun () -> f xs.(i)))) order;
  Array.map (function Some p -> await p | None -> assert false) promises

let shutdown t =
  if not t.closed then begin
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
