(** Deterministic random-mutator fuzzing with shrinking.

    A fuzz run interprets a sequence of {!action}s against a fresh VM while
    maintaining an OCaml-side mirror of the managed object graph (the model
    of {!Hcsgc_runtime.Vm} semantics): a root table whose slots reach
    objects with reference fields and payload words.  Every managed read is
    compared against the mirror, and — unless disabled — {!Invariants} (with
    the {!Oracle} diff) runs at every GC phase edge, so graph corruption and
    heap-metadata corruption both surface, attributed to the action that
    exposed them.

    Everything is a pure function of the inputs: {!generate} derives the
    action sequence from a {!Hcsgc_util.Rng} seed, and {!run} replays any
    action list, so a failure is reproducible from [(config, slots, seed,
    ops)] alone.  {!check_seed} additionally {e shrinks} a failing sequence
    by greedy chunked deletion (ddmin-style) to a minimal counterexample —
    minimal in the sense that removing any single remaining action makes the
    failure disappear (or the shrink budget ran out).

    Actions are total: an action naming an empty table slot degrades to a
    no-op instead of failing, which is what makes deleting arbitrary subsets
    during shrinking sound.

    The [Corrupt_*] actions are deliberate fault injection for testing the
    verifier itself — {!generate} never emits them; tests splice them into a
    generated sequence and assert that the run fails and that the shrinker
    isolates them. *)

module Config = Hcsgc_core.Config

type action =
  | Alloc of { slot : int }  (** new object into a table slot *)
  | Link of { src_slot : int; field : int; dst_slot : int }
      (** [table.(src).field <- table.(dst)] *)
  | Unlink of { slot : int; field : int }
  | Write_word of { slot : int; word : int; value : int }
  | Read_path of { slot : int; fields : int list }
      (** walk managed pointers, checking ids/payloads against the mirror *)
  | Drop of { slot : int }  (** clear a root-table slot *)
  | Churn of { count : int }  (** allocate unreferenced garbage *)
  | Force_gc  (** {!Hcsgc_runtime.Vm.full_gc} *)
  | Corrupt_color of { slot : int; field : int }
      (** fault injection: make a reference slot's colour bits malformed *)
  | Corrupt_fwd of { slot : int }
      (** fault injection: forge a dangling forwarding entry on the page
          holding the slot's object *)
  | Corrupt_tier
      (** fault injection: flip the root table page's far-tier bit behind
          the byte accounting *)

type failure = {
  action_index : int;  (** index into the {e executed} list *)
  action : action option;  (** [None]: the end-of-run validation failed *)
  message : string;
}

type outcome = Pass of { gc_cycles : int } | Fail of failure

type counterexample = {
  seed : int;
  ops : int;
  slots : int;
  kept : int list;
      (** indices into [generate ~seed ~ops ~slots] (plus any spliced
          corruption) that survived shrinking — the replay recipe *)
  actions : action list;  (** the minimal failing sequence itself *)
  failure : failure;  (** the (possibly different) failure it now produces *)
}

val generate : seed:int -> ops:int -> slots:int -> action array
(** The deterministic action sequence for a seed.  Never contains
    [Corrupt_*]. *)

val run :
  ?verify:bool ->
  ?oracle:bool ->
  ?mutators:int ->
  config:Config.t ->
  slots:int ->
  action list ->
  outcome
(** Execute an action list on a fresh VM.  [verify] (default [true])
    installs {!Invariants.install} (with [oracle], default [true]) for the
    whole run; a {!Invariants.Violation}, mirror mismatch, or any other
    exception becomes [Fail] attributed to the in-flight action.  A final
    full-graph validation, {!Hcsgc_runtime.Vm.finish} and a last invariant
    sweep run after the list is exhausted.
    [mutators] (default 1) deals the actions round-robin over that many VM
    mutator threads (action [i] runs on thread [i mod mutators]) — the
    logical sequence is unchanged, but clocks, allocation targets and cache
    traffic spread across cores. *)

val shrink :
  ?budget:int ->
  fails:(action list -> bool) ->
  (int * action) list ->
  (int * action) list
(** [shrink ~fails indexed] minimises an indexed action list under the
    predicate by chunked deletion, halving the chunk size down to single
    actions; at most [budget] (default 400) predicate evaluations. *)

val check_seed :
  ?verify:bool ->
  ?oracle:bool ->
  ?mutators:int ->
  ?shrink_budget:int ->
  ?inject:(int * action) list ->
  config:Config.t ->
  slots:int ->
  ops:int ->
  seed:int ->
  unit ->
  counterexample option
(** Generate, run, and — on failure — shrink.  [inject] splices extra
    actions (position, action) into the generated sequence before running
    (the hook for seeded-corruption tests).  [None] means the seed passed. *)

val replay : ?verify:bool -> ?oracle:bool -> ?mutators:int ->
  config:Config.t -> counterexample -> outcome
(** Re-run a counterexample's minimal action list (under the same
    [mutators] as the original run, or the failure may not reproduce). *)

val pp_action : Format.formatter -> action -> unit
val pp_failure : Format.formatter -> failure -> unit

val pp_counterexample : Format.formatter -> counterexample -> unit
(** Render the full replay recipe (seed, sizes, kept indices and the
    rendered minimal action list) — what the CI job uploads on failure. *)
