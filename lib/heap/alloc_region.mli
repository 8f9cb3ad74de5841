(** Per-core bump-target cursors: which page each mutator core is currently
    allocating (or relocating) into.

    A plain array indexed by core id, replacing the hashtable the collector
    used to key bump targets by core: each core owns exactly one slot and
    reading a slot allocates nothing.

    Empty slots are [None]; the table grows on demand, so any non-negative
    core id is valid, as with the hashtable it replaces. *)

type t

val create : ?cores:int -> unit -> t
(** [create ~cores ()] presizes for [cores] slots (default 1). *)

val get : t -> core:int -> Page.t option
(** The core's current target page, if any.
    @raise Invalid_argument on a negative core. *)

val set : t -> core:int -> Page.t option -> unit
(** Install ([Some]) or retire ([None]) the core's target page. *)
