(** Heap geometry: page size classes (Table 1 of the paper) and object
    alignment.

    ZGC's sizes are fixed — small pages 2 MB (objects ≤ 256 KB), medium pages
    32 MB (objects ≤ 4 MB), large pages 2 MB-aligned single-object pages.  The
    simulator keeps the same *ratios* but lets the small-page size scale down
    so that scaled-down benchmark heaps still span enough pages for evacuation
    selection to be meaningful. *)

type t = private {
  small_page : int;  (** small page size in bytes; the address granule *)
  medium_page : int;  (** 16 × small (32 MB at paper scale) *)
  small_obj_max : int;  (** small_page / 8 (256 KB at paper scale) *)
  medium_obj_max : int;  (** medium_page / 8 (4 MB at paper scale) *)
  header_bytes : int;  (** per-object VM metadata (16, like HotSpot) *)
  word_bytes : int;  (** 8 *)
}

val paper : t
(** Table 1 exactly: 2 MB small pages. *)

val scaled : small_page:int -> t
(** Same ratios with a smaller granule (must be a power of two ≥ 4 KB).
    @raise Invalid_argument otherwise. *)

type size_class = Small | Medium | Large

val class_of_object_size : t -> int -> size_class
(** Which page class serves an object of the given byte size (Table 1's
    "Object Size" column). *)

val page_bytes_for : t -> size_class -> int -> int
(** [page_bytes_for t cls obj_size] is the byte size of a page of class [cls];
    for [Large] this is [obj_size] rounded up to the granule. *)

val granule : t -> int
(** The virtual-address granule (= small page size); all pages are
    granule-aligned and granule-sized multiples. *)

val object_bytes : t -> nrefs:int -> nwords:int -> int
(** Total aligned byte size of an object with [nrefs] reference slots and
    [nwords] scalar payload words, header included. *)
