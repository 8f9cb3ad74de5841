(** Exact host-allocation meter for the zero-allocation fences and the
    micro-benchmarks.

    Not [Gc.allocated_bytes], which on OCaml 5.1 counts the current minor
    heap's words at one eighth and catches up at the next minor
    collection, so a window holding one jumps by ~230k words. *)

val words : unit -> float
(** Words allocated so far by this domain: minor words plus words
    allocated directly in the major heap (arrays above the minor-heap size
    limit). *)

val overhead_per_call : unit -> float
(** The meter allocates its own boxed results; this is that deterministic
    per-call constant, to subtract once per measured window. *)
