(** Per-page forwarding tables (§2.2 "RE").

    While a page is being evacuated, the first thread (mutator or GC) to
    reach a live object copies it and publishes old-offset → new-address
    here.  In ZGC the insertion is a CAS and is the linearisation point of
    the relocation race; in the deterministic simulator [claim] plays that
    role — the first claimant wins, later claimants are told the existing
    address and must discard their copy.

    Backed by a flat open-addressed {!Hcsgc_util.Int_tbl} (offsets and
    addresses are non-negative ints), so claims and lookups on the GC
    phase paths allocate nothing. *)

type t

type claim_result =
  | Claimed  (** the caller won the race and must perform the copy *)
  | Already of int  (** someone already relocated it; here is the new address *)

val create : unit -> t

val claim : t -> offset:int -> new_addr:int -> claim_result
(** [claim t ~offset ~new_addr] attempts to install a forwarding for the
    object at [offset]. *)

val find : t -> offset:int -> int option
(** The forwarded address of the object at [offset], if relocated. *)

val get : t -> offset:int -> int
(** {!find} without the option box: the forwarded address, or -1 if the
    object has not been relocated.  The barrier/GC resolution paths use
    this form so a forwarding lookup allocates nothing. *)

val entries : t -> int
(** Number of forwardings installed. *)

val iter : t -> (offset:int -> new_addr:int -> unit) -> unit
(** Iterate the installed forwardings (slot order — deterministic for a
    given insertion history, not sorted). *)
