(** GC statistics, mirroring §4.2 "GC Statistics": GC cycles per run, small
    pages selected for evacuation per cycle (the paper reports the median
    over cycles, averaged over runs), plus relocation attribution
    (mutator vs GC threads) and heap-usage samples over time. *)

type t

val create : unit -> t

val on_cycle_start : t -> int
(** Record a cycle start; returns the new cycle sequence number. *)

val on_ec_selected : t -> small:int -> unit
(** Record the small-page EC size chosen in the current cycle. *)

val on_alloc : t -> bytes:int -> unit
(** Record an object allocation (cumulative bytes). *)

val on_relocate : t -> by_mutator:bool -> bytes:int -> unit
val on_page_freed : t -> unit
val on_mark : t -> unit
val on_hot_flag : t -> unit
val on_stw : t -> unit
val on_heap_sample : t -> wall:int -> used:int -> unit

val on_barrier : t -> slow:bool -> unit
(** Record a mutator barrier execution (handle or load barrier): [slow]
    when the slow path ran (bad colour, or the object sat on an in-EC
    page).  Feeds the telemetry counter samples. *)

val on_page_demoted : t -> unit
(** Record a cold page demoted to the far tier at sweep. *)

val on_page_promoted : t -> unit
(** Record a far page promoted back to DRAM on mutator access. *)

val cycles : t -> int
(** Completed-or-started GC cycles. *)

val median_small_pages_in_ec : t -> float
(** Median over cycles of small pages selected for evacuation (the per-run
    number the paper averages). 0 if no cycles ran. *)

val bytes_allocated : t -> int
(** Cumulative object bytes allocated over the run. *)

val objects_relocated_by_mutator : t -> int
val objects_relocated_by_gc : t -> int
val bytes_relocated : t -> int
val pages_freed : t -> int
val objects_marked : t -> int
val hot_flags : t -> int
val stw_pauses : t -> int

val barrier_fast_paths : t -> int
(** Mutator barriers that stayed on the no-extra-work fast path. *)

val barrier_slow_paths : t -> int
(** Mutator barriers that took the slow path (remap / mark / relocate). *)

val pages_demoted : t -> int
(** Cold pages demoted to the far tier over the run. *)

val pages_promoted : t -> int
(** Far pages promoted back to DRAM over the run. *)

val heap_samples : t -> (int * int) list
(** [(wall, used_bytes)] samples, oldest first. *)

val pp : Format.formatter -> t -> unit
