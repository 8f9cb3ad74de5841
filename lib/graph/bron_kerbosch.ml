module Vm = Hcsgc_runtime.Vm

type stats = {
  cliques : int;
  max_size : int;
  expansions : int;
}

(* In-place ascending heap sort specialised to ints, so no comparison
   goes through a closure.  graph-mc's neighbour sets hold 60 to 119
   unsorted ids; on those this takes 2.4 us a set, [Array.stable_sort
   Int.compare] 8.0 and an insertion sort 3.9 (BENCH_heap.json).  Ints
   have no identity, so the result equals a stable sort's. *)
let sort_ints (a : int array) =
  let n = Array.length a in
  (* Move [x] down from [root] of the max-heap [a.(0 .. len - 1)]. *)
  let rec sift x root len =
    let child = (2 * root) + 1 in
    if child >= len then a.(root) <- x
    else
      let child =
        if child + 1 < len && a.(child + 1) > a.(child) then child + 1
        else child
      in
      if a.(child) > x then begin
        a.(root) <- a.(child);
        sift x child len
      end
      else a.(root) <- x
  in
  for i = (n / 2) - 1 downto 0 do
    sift a.(i) i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(last) in
    a.(last) <- a.(0);
    sift x 0 last
  done

(* Sets are sorted, duplicate-free int arrays, never mutated once built.
   [set_of_array] sorts and deduplicates a fresh array in place. *)
let set_of_array (a : int array) =
  sort_ints a;
  let k = ref 0 in
  Array.iter
    (fun x ->
      if !k = 0 || x <> a.(!k - 1) then begin
        a.(!k) <- x;
        incr k
      end)
    a;
  if !k = Array.length a then a else Array.sub a 0 !k

(* Index of the first element of [set] not below [x]. *)
let lower_bound set (x : int) =
  let lo = ref 0 and hi = ref (Array.length set) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if set.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let mem set x =
  let i = lower_bound set x in
  i < Array.length set && set.(i) = x

let inter (a : int array) (b : int array) =
  let out = Array.make (min (Array.length a) (Array.length b)) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      out.(!k) <- x;
      incr k;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  if !k = Array.length out then out else Array.sub out 0 !k

let remove set x =
  let i = lower_bound set x and n = Array.length set in
  if i = n || set.(i) <> x then set
  else begin
    let out = Array.sub set 0 (n - 1) in
    Array.blit set (i + 1) out i (n - 1 - i);
    out
  end

let add set x =
  let i = lower_bound set x and n = Array.length set in
  if i < n && set.(i) = x then set
  else begin
    let out = Array.make (n + 1) x in
    Array.blit set 0 out 0 i;
    Array.blit set i out (i + 1) (n - i);
    out
  end

(* The paper uses JGraphT's plain [BronKerboschCliqueFinder] — the
   non-pivoting variant — so this follows it: every vertex of P branches.
   Like the Java implementation, each recursion copies its candidate and
   exclusion sets and each branch materialises two intersections; those
   copies are modelled as managed allocation (the "some allocation done by
   the Bron-Kerbosch algorithm, which triggers GC often" of §4.5). *)
let run ?(max_expansions = max_int) ?(garbage_every = 1) g =
  let vm = Mgraph.vm g in
  let cliques = ref 0 and max_size = ref 0 and expansions = ref 0 in
  let charge_sets words =
    if garbage_every > 0 && !expansions mod garbage_every = 0 && words > 0 then
      ignore (Vm.alloc vm ~nrefs:0 ~nwords:(min 512 (max 4 words)))
  in
  let neighbors v =
    (* Graphs.neighborSetOf: a fresh set per call, reading the adjacency
       through the barriers. *)
    let ns = set_of_array (Mgraph.neighbors g v) in
    charge_sets (Array.length ns);
    ns
  in
  let rec bk r_size p x =
    if !expansions < max_expansions then begin
      incr expansions;
      charge_sets (Array.length p + Array.length x);
      if Array.length p = 0 && Array.length x = 0 then begin
        incr cliques;
        if r_size > !max_size then max_size := r_size
      end
      else begin
        let p_ref = ref p and x_ref = ref x in
        Array.iter
          (fun v ->
            if !expansions < max_expansions && mem !p_ref v then begin
              let nv = neighbors v in
              bk (r_size + 1) (inter !p_ref nv) (inter !x_ref nv);
              p_ref := remove !p_ref v;
              x_ref := add !x_ref v
            end)
          p
      end
    end
  in
  let all = Array.init (Mgraph.n g) (fun i -> i) in
  bk 0 all [||];
  { cliques = !cliques; max_size = !max_size; expansions = !expansions }
