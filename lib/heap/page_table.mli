(** The page table: virtual address → page.

    The address space is divided into granules (= small-page size); every
    page spans one or more whole granules.  Lookup is an array index, which
    is what keeps the simulated load barrier cheap. *)

type t

val create : layout:Layout.t -> t

val register : t -> Page.t -> unit
(** Map every granule covered by the page to it. *)

val unregister : t -> Page.t -> unit
(** Clear the granule entries (when a freed page's range is recycled). *)

val page_of_addr : t -> int -> Page.t option
(** The page currently mapped at the given byte address. *)
