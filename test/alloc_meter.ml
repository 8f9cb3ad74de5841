(* Host-allocation meter for the zero-allocation fences.

   Words allocated so far: minor words plus words allocated directly in
   the major heap (arrays above the minor-heap size limit).  Not
   [Gc.allocated_bytes], which on OCaml 5.1 counts the current minor
   heap's words at one eighth and catches up at the next minor
   collection, so a window holding one jumps by ~230k words.  The meter
   itself allocates its boxed results; [overhead_per_call] is that
   deterministic per-call constant, to subtract per window. *)

let words () =
  let _minor, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let overhead_per_call () =
  let a0 = words () in
  let a1 = words () in
  a1 -. a0
