let words () =
  let _minor, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let overhead_per_call () =
  let a0 = words () in
  let a1 = words () in
  a1 -. a0
