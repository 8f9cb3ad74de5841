(** Coloured pointers (§2 of the paper).

    ZGC stores metadata in the high bits of 64-bit pointers.  We simulate a
    pointer as an OCaml [int]: the low 48 bits are the virtual byte address
    and three metadata bits encode the colour — M0 and M1 (the alternating
    mark colours) and R (remapped).  A well-formed non-null pointer has
    exactly one colour bit set.  At any instant all threads agree on the
    {e good colour}; loading a pointer whose colour is not good traps into
    the load barrier's slow path. *)

type t = int
(** A coloured pointer value, as stored in heap slots. *)

type color = M0 | M1 | R

val null : t
(** The null pointer (no address, no colour). *)

val is_null : t -> bool

val make : color -> int -> t
(** [make c addr] builds a pointer to byte address [addr] tinted [c].
    @raise Invalid_argument if [addr] is out of the 48-bit range or 0. *)

val addr : t -> int
(** The virtual byte address, colour stripped. *)

val color : t -> color
(** The colour of a non-null pointer.
    @raise Invalid_argument on null or a malformed colour. *)

val has_color : color -> t -> bool
(** [has_color c p] — true iff [p]'s colour bit for [c] is set.  False for
    null. *)

val retint : color -> t -> t
(** [retint c p] is [p] with its colour replaced by [c] (address preserved). *)

val next_mark_color : color -> color
(** M0 ↦ M1 ↦ M0 (the alternation of Fig. 2).  [R] is not a mark colour.
    @raise Invalid_argument on [R]. *)

val color_to_string : color -> string
