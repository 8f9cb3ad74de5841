(* Tests for hcsgc.heap: coloured pointers, layout (Table 1), pages,
   forwarding tables, page table, heap allocation. *)

module Addr = Hcsgc_heap.Addr
module Layout = Hcsgc_heap.Layout
module Heap_obj = Hcsgc_heap.Heap_obj
module Fwd_table = Hcsgc_heap.Fwd_table
module Page = Hcsgc_heap.Page
module Page_table = Hcsgc_heap.Page_table
module Heap = Hcsgc_heap.Heap

let check = Alcotest.check
let case = Alcotest.test_case

let test_layout = Layout.scaled ~small_page:(64 * 1024)

(* ------------------------------------------------------------------ *)
(* Addr                                                                *)
(* ------------------------------------------------------------------ *)

let addr_roundtrip () =
  List.iter
    (fun c ->
      let p = Addr.make c 0xdeadbeef in
      check Alcotest.int "address preserved" 0xdeadbeef (Addr.addr p);
      check Alcotest.bool "colour preserved" true (Addr.has_color c p))
    [ Addr.M0; Addr.M1; Addr.R ]

let addr_null () =
  check Alcotest.bool "null is null" true (Addr.is_null Addr.null);
  check Alcotest.bool "null has no colour" false (Addr.has_color Addr.M0 Addr.null)

let addr_single_color () =
  let p = Addr.make Addr.M0 42 in
  check Alcotest.bool "M0" true (Addr.has_color Addr.M0 p);
  check Alcotest.bool "not M1" false (Addr.has_color Addr.M1 p);
  check Alcotest.bool "not R" false (Addr.has_color Addr.R p)

let addr_retint () =
  let p = Addr.make Addr.M0 123 in
  let q = Addr.retint Addr.R p in
  check Alcotest.int "address preserved" 123 (Addr.addr q);
  check Alcotest.bool "retinted" true (Addr.has_color Addr.R q);
  check Alcotest.bool "old colour gone" false (Addr.has_color Addr.M0 q)

let addr_mark_alternation () =
  check Alcotest.bool "M0 -> M1" true (Addr.next_mark_color Addr.M0 = Addr.M1);
  check Alcotest.bool "M1 -> M0" true (Addr.next_mark_color Addr.M1 = Addr.M0);
  Alcotest.check_raises "R is not a mark colour"
    (Invalid_argument "Addr.next_mark_color: R is not a mark colour") (fun () ->
      ignore (Addr.next_mark_color Addr.R))

let addr_rejects_zero () =
  Alcotest.check_raises "zero address"
    (Invalid_argument "Addr.make: address out of range") (fun () ->
      ignore (Addr.make Addr.M0 0))

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"addr: make/addr roundtrip" ~count:500
    QCheck.(int_range 1 ((1 lsl 47) - 1))
    (fun a ->
      Addr.addr (Addr.make Addr.M0 a) = a
      && Addr.addr (Addr.make Addr.R a) = a)

(* ------------------------------------------------------------------ *)
(* Layout (Table 1)                                                    *)
(* ------------------------------------------------------------------ *)

let layout_table1 () =
  let l = Layout.paper in
  check Alcotest.int "small page 2MB" (2 * 1024 * 1024) l.Layout.small_page;
  check Alcotest.int "medium page 32MB" (32 * 1024 * 1024) l.Layout.medium_page;
  check Alcotest.int "small objects up to 256KB" (256 * 1024)
    l.Layout.small_obj_max;
  check Alcotest.int "medium objects up to 4MB" (4 * 1024 * 1024)
    l.Layout.medium_obj_max

let layout_class_boundaries () =
  let l = Layout.paper in
  check Alcotest.bool "1 byte -> small" true
    (Layout.class_of_object_size l 1 = Layout.Small);
  check Alcotest.bool "256KB -> small" true
    (Layout.class_of_object_size l (256 * 1024) = Layout.Small);
  check Alcotest.bool "256KB+1 -> medium" true
    (Layout.class_of_object_size l ((256 * 1024) + 1) = Layout.Medium);
  check Alcotest.bool "4MB -> medium" true
    (Layout.class_of_object_size l (4 * 1024 * 1024) = Layout.Medium);
  check Alcotest.bool "4MB+1 -> large" true
    (Layout.class_of_object_size l ((4 * 1024 * 1024) + 1) = Layout.Large)

let layout_large_page_rounding () =
  let l = Layout.paper in
  let five_mb = 5 * 1024 * 1024 in
  let page = Layout.page_bytes_for l Layout.Large five_mb in
  check Alcotest.int "rounded to 2MB granules" (6 * 1024 * 1024) page;
  check Alcotest.bool "multiple of granule" true (page mod Layout.granule l = 0)

let layout_object_bytes () =
  let l = Layout.paper in
  (* 16-byte header + 2 refs + 3 words = 16 + 40 = 56 *)
  check Alcotest.int "object size" 56 (Layout.object_bytes l ~nrefs:2 ~nwords:3)

let layout_scaled_ratios () =
  let l = test_layout in
  check Alcotest.int "medium = 16x small" (16 * l.Layout.small_page)
    l.Layout.medium_page;
  check Alcotest.int "small max = small/8" (l.Layout.small_page / 8)
    l.Layout.small_obj_max;
  check Alcotest.int "medium max = medium/8" (l.Layout.medium_page / 8)
    l.Layout.medium_obj_max

let layout_rejects_bad_scale () =
  Alcotest.check_raises "too small"
    (Invalid_argument "Layout.scaled: small page must be a power of two >= 4096")
    (fun () -> ignore (Layout.scaled ~small_page:1024));
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "Layout.scaled: small page must be a power of two >= 4096")
    (fun () -> ignore (Layout.scaled ~small_page:5000))

(* ------------------------------------------------------------------ *)
(* Heap_obj                                                            *)
(* ------------------------------------------------------------------ *)

let obj_field_addresses () =
  let arena = Heap_obj.create_arena () in
  let o =
    Heap_obj.alloc arena ~layout:test_layout ~id:1 ~addr:0x1000 ~nrefs:2
      ~nwords:2
  in
  check Alcotest.int "ref 0 after header" 0x1010
    (Heap_obj.ref_slot_addr ~layout:test_layout arena o 0);
  check Alcotest.int "ref 1" 0x1018
    (Heap_obj.ref_slot_addr ~layout:test_layout arena o 1);
  check Alcotest.int "payload 0 after refs" 0x1020
    (Heap_obj.payload_addr ~layout:test_layout arena o 0);
  check Alcotest.int "size" 48 (Heap_obj.size arena o)

let make_page ?(birth = 0) () =
  Page.create ~layout:test_layout ~arena:(Heap_obj.create_arena ()) ~id:0
    ~cls:Layout.Small ~start:(Layout.granule test_layout)
    ~size:test_layout.Layout.small_page ~birth_cycle:birth

let obj_accessors () =
  let p = make_page () in
  let o =
    Page.new_object p ~id:2 ~addr:(p.Page.start + 0x100) ~nrefs:1 ~nwords:1
  in
  check Alcotest.int "refs start null" Addr.null (Page.get_ref p o 0);
  Page.set_ref p o 0 (Addr.make Addr.M0 0x3000);
  check Alcotest.int "ref stored" 0x3000 (Addr.addr (Page.get_ref p o 0));
  check Alcotest.int "payload reads 0 before its first write" 0
    (Page.get_word p o 0);
  Page.set_word p o 0 77;
  check Alcotest.int "word stored" 77 (Page.get_word p o 0);
  check Alcotest.int "ref untouched by the payload write" 0x3000
    (Addr.addr (Page.get_ref p o 0))

let obj_bounds () =
  let arena = Heap_obj.create_arena () in
  let o =
    Heap_obj.alloc arena ~layout:test_layout ~id:3 ~addr:0x1000 ~nrefs:1
      ~nwords:1
  in
  Alcotest.check_raises "ref slot oob"
    (Invalid_argument "Heap_obj.ref_slot_addr: slot out of range") (fun () ->
      ignore (Heap_obj.ref_slot_addr ~layout:test_layout arena o 1));
  Alcotest.check_raises "payload oob"
    (Invalid_argument "Heap_obj.payload_addr: word out of range") (fun () ->
      ignore (Heap_obj.payload_addr ~layout:test_layout arena o 1));
  let p = make_page () in
  let o = Page.new_object p ~id:4 ~addr:p.Page.start ~nrefs:1 ~nwords:1 in
  Alcotest.check_raises "ref read oob"
    (Invalid_argument "Heap_obj.ref_slot_addr: slot out of range") (fun () ->
      ignore (Page.get_ref p o 1));
  Alcotest.check_raises "word read oob"
    (Invalid_argument "Heap_obj.payload_addr: word out of range") (fun () ->
      ignore (Page.get_word p o 1));
  Alcotest.check_raises "address off the page"
    (Invalid_argument "Page: address outside the page's storage") (fun () ->
      ignore (Page.read p (p.Page.start + p.Page.size)))

(* A freed slot is reused by the next allocation, under a new generation:
   the old handle is no longer live and differs from the new one. *)
let obj_generation () =
  let arena = Heap_obj.create_arena () in
  let alloc id =
    Heap_obj.alloc arena ~layout:test_layout ~id ~addr:0x1000 ~nrefs:0
      ~nwords:1
  in
  let a = alloc 1 in
  check Alcotest.bool "fresh handle live" true (Heap_obj.is_live arena a);
  Heap_obj.free arena a;
  check Alcotest.bool "freed handle dead" false (Heap_obj.is_live arena a);
  let b = alloc 2 in
  check Alcotest.bool "slot reused under a new handle" true (a != b);
  check Alcotest.bool "old handle still dead" false (Heap_obj.is_live arena a);
  check Alcotest.int "new object's id" 2 (Heap_obj.id arena b);
  Heap_obj.free arena a;
  check Alcotest.bool "freeing a stale handle is a no-op" true
    (Heap_obj.is_live arena b);
  check Alcotest.int "one live object" 1 (Heap_obj.live_count arena);
  check Alcotest.bool "none is never live" false
    (Heap_obj.is_live arena Heap_obj.none)

(* Each object's metadata is packed into one arena cell: [addr] and [id]
   take a word each, [nrefs] and [size] 31 bits, [nwords] and
   [page_id + 1] 32 bits, next to the generation, [written] and a 32-bit
   [relocations] count.  Every field must read back what was written,
   with its neighbours at their limits, and a reused slot must start
   clean.  [size] is the binding limit of [alloc]: it caps
   [nrefs + nwords].  [relocations] can only be counted up, so it is
   read back at small counts; reaching 2^32 would take 2^32 moves. *)
type packed = {
  p_addr : int;
  p_id : int;
  p_nrefs : int;
  p_nwords : int;
  p_page_id : int;
  p_written : bool;
  p_relocs : int;
}

let max_page_id = (1 lsl 32) - 2

(* The most reference and payload words one object can have: its size
   must stay below 2^31. *)
let max_obj_words = ((1 lsl 31) - 1 - test_layout.Layout.header_bytes) / 8

let prop_packed_fields_roundtrip =
  let open QCheck.Gen in
  let edge lo hi = oneof [ oneofl [ lo; hi ]; int_range lo hi ] in
  let any_int = oneof [ oneofl [ min_int; max_int; -1; 0 ]; int ] in
  let packed =
    let* p_addr = any_int and* p_id = any_int in
    let* n = edge 0 max_obj_words in
    let* p_nrefs = edge 0 n in
    let* p_page_id = edge (-1) max_page_id in
    let* p_written = bool and* p_relocs = int_range 0 3 in
    return
      { p_addr; p_id; p_nrefs; p_nwords = n - p_nrefs; p_page_id; p_written;
        p_relocs }
  in
  QCheck.Test.make
    ~name:"heap_obj: packed fields read back at their width limits" ~count:100
    (QCheck.make (list_size (int_range 1 100) (pair packed (opt small_nat))))
    (fun script ->
      let arena = Heap_obj.create_arena () in
      let live = ref [] in
      let reads_back (o, p) =
        Heap_obj.is_live arena o
        && Heap_obj.addr arena o = p.p_addr
        && Heap_obj.id arena o = p.p_id
        && Heap_obj.nrefs arena o = p.p_nrefs
        && Heap_obj.nwords arena o = p.p_nwords
        && Heap_obj.size arena o
           = Layout.object_bytes test_layout ~nrefs:p.p_nrefs
               ~nwords:p.p_nwords
        && Heap_obj.page_id arena o = p.p_page_id
        && Heap_obj.payload_written arena o = p.p_written
        && Heap_obj.relocations arena o = p.p_relocs
        && Heap_obj.live_addr arena o = p.p_addr
      in
      List.for_all
        (fun (p, free) ->
          let o =
            Heap_obj.alloc arena ~layout:test_layout ~id:p.p_id ~addr:p.p_addr
              ~nrefs:p.p_nrefs ~nwords:p.p_nwords
          in
          let clean =
            Heap_obj.page_id arena o = -1
            && (not (Heap_obj.payload_written arena o))
            && Heap_obj.relocations arena o = 0
          in
          Heap_obj.set_page_id arena o p.p_page_id;
          if p.p_written then Heap_obj.set_payload_written arena o;
          for _ = 1 to p.p_relocs do
            Heap_obj.incr_relocations arena o
          done;
          live := (o, p) :: !live;
          let freed_dead =
            match free with
            | None -> true
            | Some k ->
                let k = k mod List.length !live in
                let gone, _ = List.nth !live k in
                Heap_obj.free arena gone;
                live := List.filteri (fun i _ -> i <> k) !live;
                not (Heap_obj.is_live arena gone)
          in
          clean && freed_dead && List.for_all reads_back !live)
        script)

(* A value wider than its field raises instead of spilling into the
   next one, and so does a slot the page index cannot hold. *)
let obj_field_widths () =
  let arena = Heap_obj.create_arena () in
  let alloc ~nrefs ~nwords =
    Heap_obj.alloc arena ~layout:test_layout ~id:0 ~addr:0 ~nrefs ~nwords
  in
  let too_big = Invalid_argument "Heap_obj.alloc: object size does not fit 31 bits" in
  Alcotest.check_raises "nrefs past the size limit" too_big (fun () ->
      ignore (alloc ~nrefs:(max_obj_words + 1) ~nwords:0));
  Alcotest.check_raises "nwords past the size limit" too_big (fun () ->
      ignore (alloc ~nrefs:1 ~nwords:max_obj_words));
  check Alcotest.int "a failed alloc takes no slot" 0
    (Heap_obj.live_count arena);
  let o = alloc ~nrefs:0 ~nwords:max_obj_words in
  check Alcotest.int "size at its limit" ((1 lsl 31) - 8) (Heap_obj.size arena o);
  let bad_page = Invalid_argument "Heap_obj.set_page_id: page id does not fit 32 bits" in
  Alcotest.check_raises "page id past 32 bits" bad_page (fun () ->
      Heap_obj.set_page_id arena o (max_page_id + 1));
  Alcotest.check_raises "page id below -1" bad_page (fun () ->
      Heap_obj.set_page_id arena o (-2));
  check Alcotest.int "page id unchanged" (-1) (Heap_obj.page_id arena o);
  let p = make_page () in
  Alcotest.check_raises "slot of 2^30 or more"
    (Invalid_argument "Page.add_object: slot does not fit 30 bits") (fun () ->
      Page.add_object p Heap_obj.none)

(* ------------------------------------------------------------------ *)
(* Fwd_table                                                           *)
(* ------------------------------------------------------------------ *)

let fwd_claim_semantics () =
  let f = Fwd_table.create () in
  check Alcotest.bool "first claim wins" true
    (Fwd_table.claim f ~offset:64 ~new_addr:0x9000 = Fwd_table.Claimed);
  check Alcotest.bool "second claim loses" true
    (Fwd_table.claim f ~offset:64 ~new_addr:0xA000 = Fwd_table.Already 0x9000);
  check (Alcotest.option Alcotest.int) "find" (Some 0x9000)
    (Fwd_table.find f ~offset:64);
  check (Alcotest.option Alcotest.int) "missing" None (Fwd_table.find f ~offset:0);
  check Alcotest.int "entries" 1 (Fwd_table.entries f)

(* ------------------------------------------------------------------ *)
(* Page                                                                *)
(* ------------------------------------------------------------------ *)

let page_bump_alloc () =
  let p = make_page () in
  check (Alcotest.option Alcotest.int) "first at 0" (Some 0) (Page.bump_alloc p 64);
  check (Alcotest.option Alcotest.int) "second at 64" (Some 64)
    (Page.bump_alloc p 32);
  check Alcotest.int "used" 96 (Page.used_bytes p);
  check Alcotest.int "free" (p.Page.size - 96) (Page.free_bytes p)

let page_bump_full () =
  let p = make_page () in
  ignore (Page.bump_alloc p (p.Page.size - 32));
  check (Alcotest.option Alcotest.int) "fits exactly"
    (Some (p.Page.size - 32))
    (Page.bump_alloc p 32);
  check (Alcotest.option Alcotest.int) "full" None (Page.bump_alloc p 8)

let obj_on_page page offset =
  Page.new_object page ~id:offset ~addr:(page.Page.start + offset) ~nrefs:0
    ~nwords:2

let page_object_registry () =
  let p = make_page () in
  let o = obj_on_page p 128 in
  check Alcotest.bool "found" true (Page.find_object p ~offset:128 = Some o);
  Page.remove_object p o;
  check Alcotest.bool "removed" true (Page.find_object p ~offset:128 = None)

(* The object index against an assoc-list model: word-aligned offsets
   in any order (production registers only increasing bump offsets),
   removal, and re-adding at a removed offset.  A small page's index
   holds at most one object start per 16-byte span (the minimum object
   size), so the model predicts [Invalid_argument] for a start at the
   other word of an occupied span, and no change.  After every step all
   three readers must agree with the model; [iter_live] runs over a
   livemap that also has bits at every unregistered offset, which it
   must skip. *)
let prop_page_index_matches_model =
  let words = 200 in
  let op =
    QCheck.(
      oneof
        [
          map (fun w -> `Add (w * 8)) (int_bound (words - 1));
          map (fun w -> `Remove (w * 8)) (int_bound (words - 1));
        ])
  in
  QCheck.Test.make ~name:"page: object index matches an assoc-list model"
    ~count:50
    QCheck.(list_of_size Gen.(int_range 50 400) op)
    (fun script ->
      let p = make_page () in
      let obj_at offset id =
        Heap_obj.alloc p.Page.arena ~layout:test_layout ~id
          ~addr:(p.Page.start + offset) ~nrefs:0 ~nwords:1
      in
      let model = ref [] in
      let agrees () =
        let same a b =
          match (a, b) with
          | Some a, Some b -> a == b
          | None, None -> true
          | _ -> false
        in
        let lookups_agree =
          List.for_all
            (fun w ->
              let offset = w * 8 in
              let expect = List.assoc_opt offset !model in
              let at = Page.object_at p ~offset in
              same (Page.find_object p ~offset) expect
              && same (if at == Heap_obj.none then None else Some at) expect)
            (List.init words Fun.id)
        in
        let sorted l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l in
        let pairs_equal l1 l2 =
          List.length l1 = List.length l2
          && List.for_all2 (fun (a, x) (b, y) -> a = b && x == y) l1 l2
        in
        let iterated = ref [] in
        Page.iter_objects p (fun offset o -> iterated := (offset, o) :: !iterated);
        Page.reset_mark_state p;
        for w = 0 to words - 1 do
          let offset = w * 8 in
          ignore
            (Page.mark_live p
               (match List.assoc_opt offset !model with
               | Some o -> o
               | None -> obj_at offset (-1)))
        done;
        let live = ref [] in
        Page.iter_live p (fun o -> live := o :: !live);
        let expect = sorted !model in
        lookups_agree
        && pairs_equal (sorted !iterated) expect
        && List.length !live = List.length expect
        && List.for_all2 (fun o (_, e) -> o == e) (List.rev !live) expect
      in
      List.for_all
        (fun step ->
          (match step with
          | `Add offset -> (
              let o = obj_at offset (List.length !model) in
              let span_taken =
                List.exists
                  (fun (at, _) -> at lsr 4 = offset lsr 4 && at <> offset)
                  !model
              in
              match Page.add_object p o with
              | () ->
                  if span_taken then failwith "second start in a span accepted";
                  model := (offset, o) :: List.remove_assoc offset !model
              | exception Invalid_argument _ when span_taken -> ())
          | `Remove offset -> (
              match List.assoc_opt offset !model with
              | Some o ->
                  Page.remove_object p o;
                  model := List.remove_assoc offset !model
              | None -> Page.remove_object p (obj_at offset (-1))));
          agrees ())
        script)

(* Medium and large pages index one entry per [small_obj_max] bytes and
   one per page.  A lookup must still hit only an object's exact offset,
   and [release] must free every registered slot.  One unrelated object
   sits in the arena throughout, so the count [release] restores is not
   simply 0. *)
let sized_page cls ~bytes =
  Page.create ~layout:test_layout ~arena:(Heap_obj.create_arena ()) ~id:0 ~cls
    ~start:(Layout.granule test_layout)
    ~size:(Layout.page_bytes_for test_layout cls bytes)
    ~birth_cycle:0

let place page ~nwords =
  let bytes = Layout.object_bytes test_layout ~nrefs:1 ~nwords in
  let offset = Option.get (Page.bump_alloc page bytes) in
  ( offset,
    Page.new_object page ~id:offset ~addr:(page.Page.start + offset) ~nrefs:1
      ~nwords )

let sized_page_registry cls ~nwords ~count () =
  let p =
    sized_page cls ~bytes:(Layout.object_bytes test_layout ~nrefs:1 ~nwords)
  in
  let arena = p.Page.arena in
  ignore
    (Heap_obj.alloc arena ~layout:test_layout ~id:(-1) ~addr:0 ~nrefs:0
       ~nwords:0);
  let before = Heap_obj.live_count arena in
  let objs = List.init count (fun _ -> place p ~nwords) in
  List.iter
    (fun (offset, o) ->
      check Alcotest.bool "found at its offset" true
        (Page.find_object p ~offset = Some o);
      check Alcotest.bool "missed one word later" true
        (Page.find_object p ~offset:(offset + 8) = None))
    objs;
  let first_offset, first = List.hd objs in
  Page.remove_object p first;
  check Alcotest.bool "removed" true
    (Page.find_object p ~offset:first_offset = None);
  let iterated = ref [] in
  Page.iter_objects p (fun offset o -> iterated := (offset, o) :: !iterated);
  check Alcotest.bool "iter_objects: the others, in address order" true
    (List.rev !iterated = List.tl objs);
  Page.add_object p first;
  check Alcotest.bool "re-added" true
    (Page.find_object p ~offset:first_offset = Some first);
  check Alcotest.int "registered" count (Page.object_count p);
  Page.release p;
  check Alcotest.int "release frees every registered slot" before
    (Heap_obj.live_count arena);
  check Alcotest.int "released page registers nothing" 0 (Page.object_count p);
  check Alcotest.bool "released page finds nothing" true
    (Page.find_object p ~offset:first_offset = None)

(* Two objects starting in one index entry's span cannot both be
   registered: the second raises and the first stays.  A small page's
   span is 16 bytes, a medium page's [small_obj_max]. *)
let page_overlap_rejected () =
  let rejects p ~nwords =
    let offset, o = place p ~nwords in
    let squeezed =
      Heap_obj.alloc p.Page.arena ~layout:test_layout ~id:1
        ~addr:(p.Page.start + offset + 8) ~nrefs:0 ~nwords:1
    in
    Alcotest.check_raises "second object in one entry's span"
      (Invalid_argument
         "Page.add_object: entry held by an object at another offset")
      (fun () -> Page.add_object p squeezed);
    check Alcotest.bool "first registration kept" true
      (Page.find_object p ~offset = Some o);
    check Alcotest.bool "nothing registered at the second offset" true
      (Page.find_object p ~offset:(offset + 8) = None)
  in
  rejects (make_page ()) ~nwords:0;
  let nwords = 1100 in
  rejects
    (sized_page Layout.Medium
       ~bytes:(Layout.object_bytes test_layout ~nrefs:1 ~nwords))
    ~nwords

(* Index buffers are pooled by byte length, so at a 4 KiB small page a
   medium page's buffer (128 slot entries, then 128 registered offsets)
   has the length of a small page's (256 entries).  An object moved off a
   medium page must leave its offset entry reset too: a small page that
   takes the buffer after [release] would read it as a registered slot. *)
let page_pooled_index_clean () =
  let layout = Layout.scaled ~small_page:4096 in
  let arena = Heap_obj.create_arena () in
  let page ~id cls ~start =
    Page.create ~layout ~arena ~id ~cls ~start
      ~size:(Layout.page_bytes_for layout cls 0)
      ~birth_cycle:0
  in
  let medium = page ~id:0 Layout.Medium ~start:0x100000 in
  let other = page ~id:1 Layout.Medium ~start:0x200000 in
  let nwords = 100 in
  let bytes = Layout.object_bytes layout ~nrefs:0 ~nwords in
  let objs =
    List.init 3 (fun k ->
        Page.new_object medium ~id:k ~addr:(medium.Page.start + (k * bytes))
          ~nrefs:0 ~nwords)
  in
  Page.move_object ~src:medium ~dst:other (List.nth objs 1)
    ~new_addr:other.Page.start;
  Page.release medium;
  let small = page ~id:2 Layout.Small ~start:0x300000 in
  check Alcotest.int "small page registers nothing" 0 (Page.object_count small);
  for w = 0 to (small.Page.size / 8) - 1 do
    if Page.object_at small ~offset:(w * 8) != Heap_obj.none then
      Alcotest.failf "stale object at offset %d of a fresh small page" (w * 8)
  done;
  ignore (Page.new_object small ~id:9 ~addr:small.Page.start ~nrefs:0 ~nwords:0);
  check Alcotest.int "then registers one" 1 (Page.object_count small)

let page_liveness_accounting () =
  let p = make_page () in
  let o1 = obj_on_page p 0 and o2 = obj_on_page p 64 in
  check Alcotest.bool "first marking" true (Page.mark_live p o1);
  check Alcotest.bool "re-marking is idempotent" false (Page.mark_live p o1);
  ignore (Page.mark_live p o2);
  let size o = Heap_obj.size p.Page.arena o in
  check Alcotest.int "live bytes" (size o1 + size o2) p.Page.live_bytes;
  check Alcotest.int "live objects" 2 p.Page.live_objects;
  check Alcotest.bool "is marked" true (Page.is_marked_live p o1)

let page_iter_live_order () =
  let p = make_page () in
  let o1 = obj_on_page p 192 and o2 = obj_on_page p 0 and o3 = obj_on_page p 64 in
  List.iter (fun o -> ignore (Page.mark_live p o)) [ o1; o2; o3 ];
  let order = ref [] in
  Page.iter_live p (fun o -> order := Heap_obj.addr p.Page.arena o :: !order);
  check (Alcotest.list Alcotest.int) "ascending address order"
    [ p.Page.start; p.Page.start + 64; p.Page.start + 192 ]
    (List.rev !order)

let page_hotness () =
  let p = make_page () in
  let o = obj_on_page p 0 in
  ignore (Page.mark_live p o);
  check Alcotest.bool "cold initially" false (Page.is_hot p o);
  check Alcotest.bool "first flag" true (Page.flag_hot p o);
  check Alcotest.bool "second flag is a no-op" false (Page.flag_hot p o);
  check Alcotest.bool "hot" true (Page.is_hot p o);
  check Alcotest.int "hot bytes" (Heap_obj.size p.Page.arena o)
    p.Page.hot_bytes;
  check Alcotest.int "cold bytes" 0 (Page.cold_bytes p)

let page_hot_epoch_flip () =
  let p = make_page () in
  let o = obj_on_page p 0 in
  ignore (Page.mark_live p o);
  ignore (Page.flag_hot p o);
  Page.reset_mark_state p;
  check Alcotest.bool "cold in new epoch" false (Page.is_hot p o);
  check Alcotest.bool "hot in previous epoch" true (Page.was_hot p o);
  check Alcotest.int "live reset" 0 p.Page.live_bytes;
  check Alcotest.int "hot bytes reset" 0 p.Page.hot_bytes

let page_wlb () =
  let p = make_page () in
  (* 10 live objects of 32 bytes; 4 hot. *)
  let objs = List.init 10 (fun i -> obj_on_page p (i * 64)) in
  List.iter (fun o -> ignore (Page.mark_live p o)) objs;
  List.iteri (fun i o -> if i < 4 then ignore (Page.flag_hot p o)) objs;
  let hot = 4 * 32 and cold = 6 * 32 in
  check Alcotest.int "cc=0 degrades to live bytes" (hot + cold)
    (Page.weighted_live_bytes p ~cold_confidence:0.0);
  check Alcotest.int "cc=1 counts only hot bytes" hot
    (Page.weighted_live_bytes p ~cold_confidence:1.0);
  check Alcotest.int "cc=0.5 discounts cold" (hot + (cold / 2))
    (Page.weighted_live_bytes p ~cold_confidence:0.5)

let page_wlb_all_cold () =
  let p = make_page () in
  let objs = List.init 5 (fun i -> obj_on_page p (i * 64)) in
  List.iter (fun o -> ignore (Page.mark_live p o)) objs;
  (* hot bytes = 0: WLB is plain cold bytes regardless of confidence. *)
  check Alcotest.int "all-cold page uses cold bytes" (5 * 32)
    (Page.weighted_live_bytes p ~cold_confidence:1.0)

let page_live_ratio () =
  let p = make_page () in
  let o = obj_on_page p 0 in
  ignore (Page.mark_live p o);
  check (Alcotest.float 1e-9) "ratio"
    (float_of_int (Heap_obj.size p.Page.arena o) /. float_of_int p.Page.size)
    (Page.live_ratio p)

(* ------------------------------------------------------------------ *)
(* Page_table                                                          *)
(* ------------------------------------------------------------------ *)

let page_table_register_lookup () =
  let pt = Page_table.create ~layout:test_layout in
  let p = make_page () in
  Page_table.register pt p;
  check Alcotest.bool "start" true (Page_table.page_of_addr pt p.Page.start = Some p);
  check Alcotest.bool "last byte" true
    (Page_table.page_of_addr pt (p.Page.start + p.Page.size - 1) = Some p);
  check Alcotest.bool "before" true (Page_table.page_of_addr pt 0 = None);
  Page_table.unregister pt p;
  check Alcotest.bool "unregistered" true
    (Page_table.page_of_addr pt p.Page.start = None)

let page_table_medium_spans_granules () =
  let pt = Page_table.create ~layout:test_layout in
  let p =
    Page.create ~layout:test_layout ~arena:(Heap_obj.create_arena ()) ~id:1
      ~cls:Layout.Medium
      ~start:(4 * Layout.granule test_layout)
      ~size:test_layout.Layout.medium_page ~birth_cycle:0
  in
  Page_table.register pt p;
  (* Probe the middle granule. *)
  let mid = p.Page.start + (8 * Layout.granule test_layout) in
  check Alcotest.bool "middle granule mapped" true
    (Page_table.page_of_addr pt mid = Some p)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let mk_heap ?(max = 8 * 1024 * 1024) () =
  Heap.create ~layout:test_layout ~max_bytes:max ()

let heap_page_allocation () =
  let h = mk_heap () in
  match Heap.alloc_page h ~cls:Layout.Small ~bytes:0 ~birth_cycle:0 with
  | None -> Alcotest.fail "allocation failed"
  | Some p ->
      check Alcotest.int "used" p.Page.size (Heap.used_bytes h);
      check Alcotest.bool "mapped" true (Heap.page_of_addr h p.Page.start = Some p);
      check Alcotest.int "one small page" 1 (Heap.page_count h Layout.Small)

let heap_respects_max () =
  let h = mk_heap ~max:(128 * 1024) () in
  let p1 = Heap.alloc_page h ~cls:Layout.Small ~bytes:0 ~birth_cycle:0 in
  let p2 = Heap.alloc_page h ~cls:Layout.Small ~bytes:0 ~birth_cycle:0 in
  let p3 = Heap.alloc_page h ~cls:Layout.Small ~bytes:0 ~birth_cycle:0 in
  check Alcotest.bool "two fit" true (p1 <> None && p2 <> None);
  check Alcotest.bool "third rejected" true (p3 = None);
  check Alcotest.bool "force overrides" true
    (Heap.alloc_page ~force:true h ~cls:Layout.Small ~bytes:0 ~birth_cycle:0
    <> None)

let heap_free_then_recycle () =
  let h = mk_heap () in
  let p = Option.get (Heap.alloc_page h ~cls:Layout.Small ~bytes:0 ~birth_cycle:0) in
  let start = p.Page.start in
  Heap.free_page h p;
  check Alcotest.int "memory released" 0 (Heap.used_bytes h);
  check Alcotest.bool "unmapped" true (Heap.page_of_addr h start = None);
  (* Address range not recycled yet: the next page gets a fresh range. *)
  let q = Option.get (Heap.alloc_page h ~cls:Layout.Small ~bytes:0 ~birth_cycle:0) in
  check Alcotest.bool "fresh range while quarantined" true (q.Page.start <> start);
  Heap.recycle_range h p;
  let r = Option.get (Heap.alloc_page h ~cls:Layout.Small ~bytes:0 ~birth_cycle:0) in
  check Alcotest.int "recycled range reused" start r.Page.start

let heap_double_free_rejected () =
  let h = mk_heap () in
  let p = Option.get (Heap.alloc_page h ~cls:Layout.Small ~bytes:0 ~birth_cycle:0) in
  Heap.free_page h p;
  Alcotest.check_raises "double free"
    (Invalid_argument "Heap.free_page: page already freed") (fun () ->
      Heap.free_page h p)

let heap_object_allocation () =
  let h = mk_heap () in
  let p = Option.get (Heap.alloc_page h ~cls:Layout.Small ~bytes:0 ~birth_cycle:0) in
  let o = Option.get (Heap.alloc_object_in h p ~nrefs:1 ~nwords:1) in
  let addr = Heap_obj.addr (Heap.objects h) o in
  check Alcotest.bool "object at page start" true (addr = p.Page.start);
  check Alcotest.bool "obj_at finds it" true (Heap.obj_at h addr = Some o);
  check Alcotest.bool "obj_at misses elsewhere" true
    (Heap.obj_at h (addr + 8) = None)

let heap_object_fills_page () =
  let h = mk_heap () in
  let p = Option.get (Heap.alloc_page h ~cls:Layout.Small ~bytes:0 ~birth_cycle:0) in
  let n = ref 0 in
  let rec fill () =
    match Heap.alloc_object_in h p ~nrefs:0 ~nwords:2 with
    | Some _ ->
        incr n;
        fill ()
    | None -> ()
  in
  fill ();
  check Alcotest.int "page capacity in 32B objects"
    (test_layout.Layout.small_page / 32)
    !n

let heap_large_object () =
  let h = mk_heap ~max:(32 * 1024 * 1024) () in
  (* An object bigger than medium_obj_max must land on its own large page. *)
  let words = (test_layout.Layout.medium_obj_max / 8) + 16 in
  let o = Option.get (Heap.alloc_large_object h ~nrefs:0 ~nwords:words ~birth_cycle:0) in
  let objs = Heap.objects h in
  let p = Option.get (Heap.page_of_addr h (Heap_obj.addr objs o)) in
  check Alcotest.bool "large class" true (p.Page.cls = Layout.Large);
  check Alcotest.bool "single object page" true
    (p.Page.size >= Heap_obj.size objs o)

let heap_ids_monotone () =
  let h = mk_heap () in
  let p = Option.get (Heap.alloc_page h ~cls:Layout.Small ~bytes:0 ~birth_cycle:0) in
  let a = Option.get (Heap.alloc_object_in h p ~nrefs:0 ~nwords:1) in
  let b = Option.get (Heap.alloc_object_in h p ~nrefs:0 ~nwords:1) in
  let id = Heap_obj.id (Heap.objects h) in
  check Alcotest.bool "ids increase" true (id b > id a)

let prop_object_bytes_aligned =
  QCheck.Test.make ~name:"layout: object sizes word-aligned and monotone"
    ~count:300
    QCheck.(pair (int_bound 64) (int_bound 64))
    (fun (nrefs, nwords) ->
      let b = Layout.object_bytes test_layout ~nrefs ~nwords in
      b mod 8 = 0
      && b >= test_layout.Layout.header_bytes
      && Layout.object_bytes test_layout ~nrefs:(nrefs + 1) ~nwords > b)

let prop_addr_retint_idempotent =
  QCheck.Test.make ~name:"addr: retint is idempotent and colour-sound"
    ~count:300
    QCheck.(pair (int_range 8 1_000_000) (int_bound 2))
    (fun (a, c) ->
      let color = match c with 0 -> Addr.M0 | 1 -> Addr.M1 | _ -> Addr.R in
      let p = Addr.make Addr.M0 a in
      let q = Addr.retint color p in
      Addr.retint color q = q && Addr.color q = color && Addr.addr q = a)

let prop_fwd_first_claim_wins =
  QCheck.Test.make ~name:"fwd: first claim wins for every offset" ~count:200
    QCheck.(small_list (pair (int_bound 100) (int_range 1 100000)))
    (fun claims ->
      let f = Fwd_table.create () in
      let expected = Hashtbl.create 16 in
      List.for_all
        (fun (offset, addr) ->
          match Fwd_table.claim f ~offset ~new_addr:addr with
          | Fwd_table.Claimed ->
              if Hashtbl.mem expected offset then false
              else begin
                Hashtbl.add expected offset addr;
                true
              end
          | Fwd_table.Already a -> Hashtbl.find_opt expected offset = Some a)
        claims)

let prop_heap_pages_disjoint =
  QCheck.Test.make ~name:"heap: live pages have disjoint ranges" ~count:50
    QCheck.(small_list (int_bound 2))
    (fun classes ->
      let h = Heap.create ~layout:test_layout ~max_bytes:(256 * 1024 * 1024) () in
      List.iter
        (fun c ->
          let cls =
            match c with 0 -> Layout.Small | 1 -> Layout.Medium | _ -> Layout.Large
          in
          ignore
            (Heap.alloc_page h ~cls ~bytes:(3 * test_layout.Layout.medium_obj_max)
               ~birth_cycle:0))
        classes;
      let ranges = ref [] in
      Heap.iter_pages h (fun p ->
          ranges := (p.Page.start, p.Page.start + p.Page.size) :: !ranges);
      let rec disjoint = function
        | [] -> true
        | (s1, e1) :: rest ->
            List.for_all (fun (s2, e2) -> e1 <= s2 || e2 <= s1) rest
            && disjoint rest
      in
      disjoint !ranges)

(* ------------------------------------------------------------------ *)
(* Handles against a model                                              *)
(* ------------------------------------------------------------------ *)

(* Every live handle's id, address, reference slots and payload words
   agree with a plain [Hashtbl] model across interleaved allocation,
   writes, relocation (to another page, or further up the same one) and
   page frees; every handle freed with its page stays dead even after
   its slot is reused.  [k] picks the k-th model object, mod the count. *)
type model_obj = {
  m_id : int;
  mutable m_addr : int;
  m_refs : int array;
  m_words : int array;
}

let prop_handles_match_model =
  let op =
    QCheck.(
      oneof
        [
          map (fun (r, w) -> `Alloc (r, w)) (pair (int_bound 3) (int_bound 4));
          map (fun kv -> `Set_ref kv) (pair small_nat (int_bound 9999));
          map (fun kv -> `Set_word kv) (pair small_nat (int_bound 9999));
          map (fun k -> `Relocate k) small_nat;
          map (fun k -> `Free_page k) small_nat;
        ])
  in
  QCheck.Test.make ~name:"heap: handles agree with a Hashtbl model" ~count:60
    QCheck.(list_of_size Gen.(int_range 20 300) op)
    (fun script ->
      let h = Heap.create ~layout:test_layout ~max_bytes:(1 lsl 30) () in
      let objs = Heap.objects h in
      let model : (Heap_obj.t, model_obj) Hashtbl.t = Hashtbl.create 64 in
      let dead = ref [] in
      let target = ref None and relo = ref None in
      let new_page () =
        Option.get
          (Heap.alloc_page h ~cls:Layout.Small ~bytes:0 ~birth_cycle:0)
      in
      let rec bump slot bytes =
        let page =
          match !slot with
          | Some p -> p
          | None ->
              let p = new_page () in
              slot := Some p;
              p
        in
        match Page.bump_alloc page bytes with
        | Some offset -> (page, page.Page.start + offset)
        | None ->
            slot := None;
            bump slot bytes
      in
      let nth k =
        let n = Hashtbl.length model in
        if n = 0 then None
        else begin
          let sorted =
            List.sort
              (fun (_, a) (_, b) -> Int.compare a.m_id b.m_id)
              (Hashtbl.fold (fun o m acc -> (o, m) :: acc) model [])
          in
          Some (List.nth sorted (k mod n))
        end
      in
      let step = function
        | `Alloc (nrefs, nwords) ->
            let bytes = Layout.object_bytes test_layout ~nrefs ~nwords in
            let page, addr = bump target bytes in
            let o = Heap.new_object h page ~addr ~nrefs ~nwords in
            Hashtbl.replace model o
              {
                m_id = Heap_obj.id objs o;
                m_addr = addr;
                m_refs = Array.make nrefs Addr.null;
                m_words = Array.make nwords 0;
              }
        | `Set_ref (k, v) -> (
            match nth k with
            | Some (o, m) when Array.length m.m_refs > 0 ->
                let i = v mod Array.length m.m_refs in
                let p = Addr.make Addr.M0 (8 * (v + 1)) in
                Heap.set_ref h o i p;
                m.m_refs.(i) <- p
            | _ -> ())
        | `Set_word (k, v) -> (
            match nth k with
            | Some (o, m) when Array.length m.m_words > 0 ->
                let i = v mod Array.length m.m_words in
                Heap.set_word h o i v;
                m.m_words.(i) <- v
            | _ -> ())
        | `Relocate k -> (
            match nth k with
            | None -> ()
            | Some (o, m) ->
                let src = Option.get (Heap.page_of_addr h m.m_addr) in
                let dst, new_addr = bump relo (Heap_obj.size objs o) in
                Page.move_object ~src ~dst o ~new_addr;
                m.m_addr <- new_addr)
        | `Free_page k -> (
            match nth k with
            | None -> ()
            | Some (_, m) ->
                let page = Option.get (Heap.page_of_addr h m.m_addr) in
                let forget slot =
                  match !slot with
                  | Some p when p == page -> slot := None
                  | _ -> ()
                in
                forget target;
                forget relo;
                Heap.free_page h page;
                Hashtbl.filter_map_inplace
                  (fun o m ->
                    if Page.contains page m.m_addr then begin
                      dead := o :: !dead;
                      None
                    end
                    else Some m)
                  model)
      in
      let agrees () =
        Heap_obj.live_count objs = Hashtbl.length model
        && List.for_all (fun o -> not (Heap_obj.is_live objs o)) !dead
        && Hashtbl.fold
             (fun o m ok ->
               ok
               && Heap_obj.is_live objs o
               && Heap_obj.id objs o = m.m_id
               && Heap_obj.addr objs o = m.m_addr
               && Heap.obj_at h m.m_addr = Some o
               && Array.for_all Fun.id
                    (Array.mapi (fun i p -> Heap.get_ref h o i = p) m.m_refs)
               && Array.for_all Fun.id
                    (Array.mapi (fun i v -> Heap.get_word h o i = v) m.m_words))
             model true
      in
      List.for_all
        (fun op ->
          step op;
          agrees ())
        script)

(* ------------------------------------------------------------------ *)
(* Large-range free list: in-place first-fit splitting                 *)
(* ------------------------------------------------------------------ *)

(* The recycled-large-range list is scanned newest-first with first-fit;
   a larger range is split in place (remainder keeps its slot), an exact
   fit is removed.  These pin the allocation addresses, which is what the
   byte-identity of large-object workloads rests on. *)
let heap_large_first_fit_newest () =
  let h = Heap.create ~layout:test_layout ~max_bytes:(64 * 1024 * 1024) () in
  let g = Layout.granule test_layout in
  let alloc ngranules =
    Option.get
      (Heap.alloc_page h ~cls:Layout.Large ~bytes:(ngranules * g)
         ~birth_cycle:0)
  in
  let a = alloc 4 in
  let b = alloc 2 in
  let c = alloc 3 in
  let free p =
    Heap.free_page h p;
    Heap.recycle_range h p
  in
  (* Recycle B then A: the list holds [B; A] with A newest. *)
  free b;
  free a;
  (* First-fit newest-first: a 2-granule request splits A in place. *)
  let p1 = alloc 2 in
  check Alcotest.int "reuses newest range (A) first" a.Page.start p1.Page.start;
  (* The remainder of A is still newest; exact fit removes it. *)
  let p2 = alloc 2 in
  check Alcotest.int "then A's remainder" (a.Page.start + (2 * g))
    p2.Page.start;
  (* Only B remains; exact fit. *)
  let p3 = alloc 2 in
  check Alcotest.int "then the older range (B)" b.Page.start p3.Page.start;
  (* The list is empty: a fresh request extends the address space. *)
  let p4 = alloc 1 in
  check Alcotest.bool "fresh extension past C" true
    (p4.Page.start >= c.Page.start + (3 * g))

let heap_large_skips_too_small () =
  let h = Heap.create ~layout:test_layout ~max_bytes:(64 * 1024 * 1024) () in
  let g = Layout.granule test_layout in
  let alloc ngranules =
    Option.get
      (Heap.alloc_page h ~cls:Layout.Large ~bytes:(ngranules * g)
         ~birth_cycle:0)
  in
  let a = alloc 5 in
  let b = alloc 1 in
  Heap.free_page h a;
  Heap.recycle_range h a;
  Heap.free_page h b;
  Heap.recycle_range h b;
  (* Newest (B, 1 granule) is too small: first-fit falls through to A. *)
  let p = alloc 3 in
  check Alcotest.int "skips too-small newest range" a.Page.start p.Page.start;
  let q = alloc 1 in
  check Alcotest.int "exact fit still served newest-first" b.Page.start
    q.Page.start

(* ------------------------------------------------------------------ *)
(* Page-vector compaction: iteration order survives tombstone sweeps   *)
(* ------------------------------------------------------------------ *)

(* [Heap.free_page] compacts the page vector in place once more than half
   of it is freed tombstones.  EC selection iterates pages in this vector's
   order, so the sweep must preserve the relative order of live pages —
   a reordering here would silently change every figure. *)
let heap_compaction_preserves_page_order () =
  let h = Heap.create ~layout:test_layout ~max_bytes:(1024 * 1024 * 1024) () in
  let g = Layout.granule test_layout in
  let pages =
    Array.init 400 (fun _ ->
        Option.get
          (Heap.alloc_page h ~cls:Layout.Small ~bytes:g ~birth_cycle:0))
  in
  (* Free two in three, in a scattered pattern: the compaction trigger
     (more than half tombstones) fires repeatedly on the way. *)
  Array.iteri
    (fun i p -> if i mod 3 <> 1 then Heap.free_page h p)
    pages;
  let survivors = ref [] in
  Heap.iter_pages h (fun p -> survivors := p.Page.id :: !survivors);
  let expected =
    Array.to_list pages
    |> List.filteri (fun i _ -> i mod 3 = 1)
    |> List.map (fun (p : Page.t) -> p.Page.id)
  in
  check (Alcotest.list Alcotest.int) "survivors in creation order" expected
    (List.rev !survivors);
  (* Pages allocated after the sweep append after the survivors. *)
  let extra =
    Option.get (Heap.alloc_page h ~cls:Layout.Small ~bytes:g ~birth_cycle:1)
  in
  let after = ref [] in
  Heap.iter_pages h (fun p -> after := p.Page.id :: !after);
  check (Alcotest.list Alcotest.int) "new page appends at the end"
    (expected @ [ extra.Page.id ])
    (List.rev !after)

let suite =
  [
    ( "heap.addr",
      [
        case "roundtrip" `Quick addr_roundtrip;
        case "null" `Quick addr_null;
        case "single colour" `Quick addr_single_color;
        case "retint" `Quick addr_retint;
        case "mark alternation" `Quick addr_mark_alternation;
        case "rejects zero" `Quick addr_rejects_zero;
        QCheck_alcotest.to_alcotest prop_addr_roundtrip;
      ] );
    ( "heap.layout",
      [
        case "Table 1 sizes" `Quick layout_table1;
        case "class boundaries" `Quick layout_class_boundaries;
        case "large page rounding" `Quick layout_large_page_rounding;
        case "object bytes" `Quick layout_object_bytes;
        case "scaled ratios" `Quick layout_scaled_ratios;
        case "rejects bad scale" `Quick layout_rejects_bad_scale;
      ] );
    ( "heap.obj",
      [
        case "field addresses" `Quick obj_field_addresses;
        case "accessors" `Quick obj_accessors;
        case "bounds" `Quick obj_bounds;
        case "generations" `Quick obj_generation;
        QCheck_alcotest.to_alcotest prop_packed_fields_roundtrip;
        case "field widths enforced" `Quick obj_field_widths;
      ] );
    ("heap.fwd", [ case "claim semantics" `Quick fwd_claim_semantics ]);
    ( "heap.page",
      [
        case "bump alloc" `Quick page_bump_alloc;
        case "bump full" `Quick page_bump_full;
        case "object registry" `Quick page_object_registry;
        QCheck_alcotest.to_alcotest prop_page_index_matches_model;
        (* Medium objects are larger than [small_obj_max] (8 KiB here),
           large ones than [medium_obj_max] (128 KiB). *)
        case "medium page registry" `Quick
          (sized_page_registry Layout.Medium ~nwords:1100 ~count:3);
        case "large page registry" `Quick
          (sized_page_registry Layout.Large ~nwords:20_000 ~count:1);
        case "overlapping registration rejected" `Quick page_overlap_rejected;
        case "pooled index buffer comes back clean" `Quick
          page_pooled_index_clean;
        case "liveness accounting" `Quick page_liveness_accounting;
        case "iter_live order" `Quick page_iter_live_order;
        case "hotness" `Quick page_hotness;
        case "hot epoch flip" `Quick page_hot_epoch_flip;
        case "weighted live bytes" `Quick page_wlb;
        case "WLB all-cold page" `Quick page_wlb_all_cold;
        case "live ratio" `Quick page_live_ratio;
      ] );
    ( "heap.page_table",
      [
        case "register/lookup" `Quick page_table_register_lookup;
        case "medium spans granules" `Quick page_table_medium_spans_granules;
      ] );
    ( "heap.heap",
      [
        case "page allocation" `Quick heap_page_allocation;
        case "respects max" `Quick heap_respects_max;
        case "free then recycle" `Quick heap_free_then_recycle;
        case "double free rejected" `Quick heap_double_free_rejected;
        case "object allocation" `Quick heap_object_allocation;
        case "objects fill page" `Quick heap_object_fills_page;
        case "large object" `Quick heap_large_object;
        case "ids monotone" `Quick heap_ids_monotone;
        case "large first-fit newest" `Quick heap_large_first_fit_newest;
        case "large skips too-small" `Quick heap_large_skips_too_small;
        case "compaction keeps page order" `Quick
          heap_compaction_preserves_page_order;
        QCheck_alcotest.to_alcotest prop_heap_pages_disjoint;
        QCheck_alcotest.to_alcotest prop_handles_match_model;
        QCheck_alcotest.to_alcotest prop_object_bytes_aligned;
        QCheck_alcotest.to_alcotest prop_addr_retint_idempotent;
        QCheck_alcotest.to_alcotest prop_fwd_first_claim_wins;
      ] );
  ]
