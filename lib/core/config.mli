(** HCSGC tuning knobs (§3, §4.1) and the 19 benchmark configurations of
    Table 2.

    Knob semantics, quoting the paper:

    - [hotness] — record per-object hotness in the hotmap (a CAS per first
      touch per cycle).
    - [coldpage] — GC threads relocate cold objects to a separate
      thread-local target page.  Requires [hotness].
    - [cold_confidence] — weight of cold bytes in weighted-live-bytes EC
      selection, in [0, 1]; 0 degrades to ZGC's plain live bytes.  Requires
      [hotness] to have any effect (and Table 2 only sets it with hotness
      on).
    - [relocate_all_small_pages] — put every eligible small page in EC.
    - [lazy_relocate] — defer the GC threads' relocation pass to the start of
      the next GC cycle (Fig. 3), giving mutators the whole inter-cycle
      window to relocate objects in access order.

    Far-memory tiering knobs (not in the paper; the ROADMAP's CXL/NVM
    extension — cold pages demoted behind DRAM, hot data kept near):

    - [tier_capacity_pages] — far-tier capacity in small pages; [0]
      (default) disables tiering entirely, leaving every existing
      configuration byte-identical.  Requires [hotness]: demotion is driven
      by the hotmap.
    - [lat_far] — cycles for a demand load served by the far tier (replaces
      [lat_mem] for resident lines).  Only meaningful with tiering on.
    - [tier_promote] — promote a far page back to DRAM when the mutator
      touches it via the barrier path (default).  Off = demote-only, for
      measuring the cost of stranded pages. *)

type t = {
  hotness : bool;
  coldpage : bool;
  cold_confidence : float;
  relocate_all_small_pages : bool;
  lazy_relocate : bool;
  tier_capacity_pages : int;
  lat_far : int;
  tier_promote : bool;
}

val zgc : t
(** All knobs off: the unmodified-ZGC baseline behaviour (Config 0/1). *)

val make :
  ?hotness:bool ->
  ?coldpage:bool ->
  ?cold_confidence:float ->
  ?relocate_all_small_pages:bool ->
  ?lazy_relocate:bool ->
  ?tier_capacity_pages:int ->
  ?lat_far:int ->
  ?tier_promote:bool ->
  unit ->
  t
(** Build a configuration; every knob defaults to its {!zgc} value.
    @raise Invalid_argument if the combination is invalid (see {!validate}). *)

val validate : t -> (t, string) result
(** Check the dependency rules: [coldpage] requires [hotness];
    [cold_confidence] must be in [0, 1] (so not NaN) and non-zero only
    with [hotness];
    [tier_capacity_pages] must be non-negative and positive only with
    [hotness]; [lat_far] must be positive. *)

val table2 : (int * t) list
(** The benchmark configurations of Table 2, as [(config_id, config)].
    Config 0 is the unmodified-ZGC baseline and Config 1 the modified build
    with all knobs off; both map to {!zgc} (the paper expects no significant
    difference between them, which our identical encoding makes exact). *)

val of_id : int -> t
(** [of_id n] is Table 2's Config [n].  @raise Invalid_argument if [n] is not
    in 0–18. *)

val id_count : int
(** 19. *)

val equal : t -> t -> bool
(** Knob-by-knob equality; structural, since a valid [t] holds no NaN. *)

val to_string : t -> string
(** Compact knob listing, e.g. ["hot+cp+cc0.5+lazy"].  Tier parts
    ([tier64], [far1200], [nopromote]) appear only when tiering is on, so
    pre-tier configurations keep their historical names. *)

val pp : Format.formatter -> t -> unit
