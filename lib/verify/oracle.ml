module Collector = Hcsgc_core.Collector
module Heap = Hcsgc_heap.Heap
module Heap_obj = Hcsgc_heap.Heap_obj
module Page = Hcsgc_heap.Page
module Addr = Hcsgc_heap.Addr

(* The collector's own chains are at most two hops (one relocation per
   cycle, tables retired after one cycle); anything deeper than four is
   corruption. *)
let max_chain = 4

type resolve_error = { dead_chain : bool; msg : string }

let corrupt msg = Error { dead_chain = false; msg }

let resolve_ro c addr0 =
  let heap = Collector.heap c in
  let rec go addr depth =
    if depth > max_chain then
      corrupt
        (Printf.sprintf "forwarding chain from 0x%x deeper than %d hops" addr0
           max_chain)
    else
      match Heap.page_of_addr heap addr with
      | None -> corrupt (Printf.sprintf "pointer 0x%x maps to no page" addr)
      | Some page -> (
          let offset = addr - page.Page.start in
          match Page.find_object page ~offset with
          | Some obj -> Ok obj
          | None -> (
              match Hcsgc_heap.Fwd_table.find page.Page.fwd ~offset with
              | Some fwd -> go fwd (depth + 1)
              | None when page.Page.state = Page.Freed ->
                  (* Only live-at-relocation objects get entries, so a chain
                     can legally end on a freed page — iff the object died
                     after the hop that created [addr].  Callers chasing
                     pointers that must be alive (the reachable walk) treat
                     this as corruption; callers auditing whole tables may
                     tolerate it. *)
                  Error
                    {
                      dead_chain = true;
                      msg =
                        Printf.sprintf
                          "stale pointer 0x%x into freed page #%d has no \
                           forwarding"
                          addr page.Page.id;
                    }
              | None ->
                  corrupt
                    (Printf.sprintf
                       "no object or forwarding at 0x%x on page #%d" addr
                       page.Page.id)))
  in
  go addr0 0

(* [f slot ptr] over the reference slots of a live object on a mapped
   page; nothing for a stale handle (the reachable walks report those). *)
let iter_refs heap (obj : Heap_obj.t) f =
  let objs = Heap.objects heap in
  if Heap_obj.is_live objs obj then
    match Heap.page_of_addr heap (Heap_obj.addr objs obj) with
    | None -> ()
    | Some page ->
        for slot = 0 to Heap_obj.nrefs objs obj - 1 do
          f slot (Page.get_ref page obj slot)
        done

let reachable c =
  let heap = Collector.heap c in
  let objs = Heap.objects heap in
  let errors = ref [] in
  let seen : (int, Heap_obj.t) Hashtbl.t = Hashtbl.create 4096 in
  let stack = ref [] in
  let visit (obj : Heap_obj.t) =
    if not (Hashtbl.mem seen (Heap_obj.id objs obj)) then begin
      Hashtbl.add seen (Heap_obj.id objs obj) obj;
      stack := obj :: !stack
    end
  in
  List.iter visit (Collector.roots_list c);
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | obj :: rest ->
        stack := rest;
        iter_refs heap obj (fun slot ptr ->
            if not (Addr.is_null ptr) then
              match resolve_ro c (Addr.addr ptr) with
              | Ok target -> visit target
              | Error e ->
                  errors :=
                    Printf.sprintf "object #%d slot %d: %s"
                      (Heap_obj.id objs obj) slot e.msg
                    :: !errors)
  done;
  (seen, List.rev !errors)

type diff = {
  reachable_count : int;
  marked_count : int;
  floating : int;
  missed : string list;
  errors : string list;
}

let diff c =
  let heap = Collector.heap c in
  let objs = Heap.objects heap in
  let watermark = Collector.mark_watermark c in
  let reach, errors = reachable c in
  let missed = ref [] in
  let reachable_marked = ref 0 in
  Hashtbl.iter
    (fun _ (obj : Heap_obj.t) ->
      match Heap.page_of_addr heap (Heap_obj.addr objs obj) with
      | None -> () (* already reported by [reachable] via a dangling slot *)
      | Some page ->
          if Page.is_marked_live page obj then incr reachable_marked
          else if Heap_obj.id objs obj < watermark then
            missed :=
              Printf.sprintf
                "object #%d at 0x%x (born before STW1, reachable) is not in \
                 the livemap"
                (Heap_obj.id objs obj) (Heap_obj.addr objs obj)
              :: !missed)
    reach;
  let marked_count = ref 0 in
  Heap.iter_pages heap (fun page ->
      if page.Page.state = Page.Active then
        marked_count := !marked_count + page.Page.live_objects);
  {
    reachable_count = Hashtbl.length reach;
    marked_count = !marked_count;
    floating = !marked_count - !reachable_marked;
    missed = List.rev !missed;
    errors;
  }

let check c =
  let d = diff c in
  match (d.missed, d.errors) with
  | [], [] -> Ok d
  | missed, errors -> Error (missed @ errors)
