(** [perf report]-style plain-text rendering of a profile: pause
    percentiles, MMU at a few window sizes, simulated-cycle totals per span
    name (sorted, with %-of-wall), the per-cycle relocation-attribution
    timeline and the final counter totals. *)

val write : Format.formatter -> Recorder.t -> unit

val to_string : Recorder.t -> string

(** {2 Result-store reporting}

    The incremental-sweep layer surfaces its cache counters through these
    helpers so every harness prints them identically.  They take plain
    integers (not a store handle) to keep [hcsgc.telemetry] independent of
    [hcsgc.store]; callers pass
    {!Hcsgc_store.Result_store.counters} fields through. *)

val store_line :
  dir:string ->
  hits:int ->
  misses:int ->
  corrupt:int ->
  stored:int ->
  bytes_read:int ->
  bytes_written:int ->
  string
(** One auditable line: hit/miss/corruption counts, payload bytes moved,
    store path.  The bench harness prints this at sweep end (to stderr, so
    figure text on stdout stays byte-identical between cold and warm
    runs). *)

