(** Phase-boundary heap sanitizer.

    A full-heap walker invoked at the four {!Collector.phase_edge}s of every
    GC cycle, where the heap is quiescent and each invariant has a sharp
    truth value.  Everything here is {e read-only}: a verified run is
    byte-identical (results, traces, costs) to an unverified one.

    What is checked, and when:

    - {b always}: page-table mapping round-trips; object registration
      matches addresses and stays under the bump pointer; per-page
      [live_bytes]/[live_objects] equal the sum over livemap bits (exactly
      on [Active] pages, as an upper bound on [In_ec] snapshots); [Active]
      pages have empty forwarding tables; every forwarding entry resolves to
      a registered object that fits both its source slot and destination
      page; freed-but-unretired pages are unmapped, indexed for
      stale-pointer remapping, and forward {e every} live bit; every entry
      of that index is an unmapped granule of such a page; the in-EC
      page population matches {!Collector.pending_relocation_pages}; the
      good colour and phase match the edge; and the object graph reachable
      from the roots is well formed — colours are valid and good-coloured
      slots resolve {e directly} (the to-space invariant behind the load
      barrier's fast path).
    - {b at [Stw1_done]}: every root is marked, off in-EC pages.
    - {b at [Mark_done]}: no in-EC page survives; every reachable slot has
      been healed to the good colour; every reachable pre-watermark object
      is in the livemap; the hotmap is a subset of the livemap and
      [hot_bytes] equals the sum over hot bits.
    - {b at [Cycle_done]}: phase is [Idle]; without LAZYRELOCATE no in-EC
      page remains.  Before the first cycle the idle good colour is M1, so
      a fresh collector checks clean at this edge too.

    {!install} wires these checks (plus, optionally, the {!Oracle} diff at
    [Mark_done]) into a collector's phase hook; a failure raises
    {!Violation} with every message collected during the walk. *)

module Collector = Hcsgc_core.Collector

exception
  Violation of {
    edge : Collector.phase_edge;
    cycle : int;
    errors : string list;
  }

val check :
  Collector.t -> edge:Collector.phase_edge -> (unit, string list) result
(** Run every invariant valid at [edge].  At most {!max_errors} messages are
    collected before the walk gives up (a corrupted heap can otherwise
    produce one error per object). *)

val check_exn : Collector.t -> edge:Collector.phase_edge -> unit
(** @raise Violation when {!check} returns [Error]. *)

val max_errors : int
(** Cap on collected messages per check (the count of further suppressed
    errors is appended as a final message). *)

val install : ?oracle:bool -> Collector.t -> unit
(** Install the sanitizer as the collector's phase hook: {!check_exn} at
    every edge and — when [oracle] is [true], the default — {!Oracle.check}
    at [Mark_done].  Replaces any previously installed hook. *)
