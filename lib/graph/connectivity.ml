module Vm = Hcsgc_runtime.Vm

type result = {
  components : int;
  largest : int;
  cut_points : int;
  visits : int;
}

(* JGraphT-style transient allocation: iterators, boxed ints, map nodes. *)
let gc_pressure vm ~garbage_every ~counter =
  incr counter;
  if garbage_every > 0 && !counter mod garbage_every = 0 then
    ignore (Vm.alloc vm ~nrefs:0 ~nwords:6)

let connected_components_counted ?(garbage_every = 2) g ~visits =
  let vm = Mgraph.vm g in
  let n = Mgraph.n g in
  let label = Array.make n (-1) in
  let queue = Queue.create () in
  let components = ref 0 in
  let largest = ref 0 in
  for start = 0 to n - 1 do
    if label.(start) < 0 then begin
      incr components;
      let size = ref 0 in
      label.(start) <- start;
      Queue.push start queue;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        incr size;
        gc_pressure vm ~garbage_every ~counter:visits;
        (* Like JGraphT's iterators, every edge visit allocates transient
           bookkeeping (boxed vertices, iterator state). *)
        Mgraph.iter_neighbors g v (fun w ->
            gc_pressure vm ~garbage_every ~counter:visits;
            if label.(w) < 0 then begin
              label.(w) <- start;
              Queue.push w queue
            end)
      done;
      if !size > !largest then largest := !size
    end
  done;
  (!components, !largest)

let connected_components ?garbage_every g =
  let visits = ref 0 in
  connected_components_counted ?garbage_every g ~visits

(* Iterative Hopcroft–Tarjan articulation points. *)
let articulation_points ?(garbage_every = 2) g ~visits =
  let vm = Mgraph.vm g in
  let n = Mgraph.n g in
  let disc = Array.make n (-1) in
  let low = Array.make n 0 in
  let parent = Array.make n (-1) in
  let is_cut = Array.make n false in
  let timer = ref 0 in
  for start = 0 to n - 1 do
    if disc.(start) < 0 then begin
      (* Explicit DFS stack of (vertex, neighbours, next unprocessed
         neighbour). *)
      let stack = ref [ (start, Mgraph.neighbors g start, ref 0) ] in
      disc.(start) <- !timer;
      low.(start) <- !timer;
      incr timer;
      let root_children = ref 0 in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (v, ns, next) :: tl ->
            gc_pressure vm ~garbage_every ~counter:visits;
            if !next = Array.length ns then begin
              stack := tl;
              match tl with
              | (u, _, _) :: _ ->
                  if low.(v) < low.(u) then low.(u) <- low.(v);
                  if parent.(v) = u && u <> start && low.(v) >= disc.(u) then
                    is_cut.(u) <- true
              | [] -> ()
            end
            else begin
              let w = ns.(!next) in
              incr next;
              gc_pressure vm ~garbage_every ~counter:visits;
              if disc.(w) < 0 then begin
                parent.(w) <- v;
                if v = start then incr root_children;
                disc.(w) <- !timer;
                low.(w) <- !timer;
                incr timer;
                stack := (w, Mgraph.neighbors g w, ref 0) :: !stack
              end
              else if w <> parent.(v) && disc.(w) < low.(v) then
                low.(v) <- disc.(w)
            end
      done;
      if !root_children > 1 then is_cut.(start) <- true
    end
  done;
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 is_cut

let analyse ?(passes = 3) ?(garbage_every = 2) g =
  let visits = ref 0 in
  let components = ref 0 and largest = ref 0 in
  for _ = 1 to max 1 passes do
    let c, l = connected_components_counted ~garbage_every g ~visits in
    components := c;
    largest := l
  done;
  let cut_points = articulation_points ~garbage_every g ~visits in
  { components = !components; largest = !largest; cut_points; visits = !visits }
