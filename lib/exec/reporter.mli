(** A serialized sink for progress/log lines from concurrent domains.

    Worker domains reporting through the same [t] never interleave
    mid-line: each {!say} delivers one whole line to the sink under the
    reporter's lock.  Line {e order} across domains still depends on
    scheduling — only atomicity per line is guaranteed. *)

type t

val create : (string -> unit) -> t
(** [create emit] wraps [emit] (called with one line, no trailing
    newline) in a mutex.  [emit] runs under the reporter's lock, so it
    need not be domain-safe — but it must not call back into the same
    reporter. *)

val say : t -> string -> unit
(** Deliver one line, atomically with respect to other [say]s on [t]. *)

