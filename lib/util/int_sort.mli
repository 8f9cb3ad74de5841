(** In-place ascending sort of an [int array].

    A heap sort specialised to ints, so no comparison goes through a
    closure: on graph-mc's 60-119-element neighbour sets it takes 2.4 us
    a set against 8.0 for [Array.stable_sort Int.compare]
    (BENCH_heap.json), and on 80k request latencies 10.9 ms against
    23.2 ms for [Array.sort Int.compare].  Ints have no identity, so the
    result equals a stable sort's. *)

val sort : int array -> unit
