(* [slots] is indexed by granule: a plain array of a non-float type, so
   the barrier's lookup inlines to one compare and one load. *)
type t = {
  granule_shift : int;  (* log2 of the granule, a power of two *)
  mutable slots : Page.t option array;
}

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ~layout =
  let granule = Layout.granule layout in
  assert (granule land (granule - 1) = 0);
  { granule_shift = log2 granule; slots = [||] }

(* A shift, not a division: this runs on every barrier. *)
let[@inline] granule_of_addr t addr = addr asr t.granule_shift

let ensure t n =
  let len = Array.length t.slots in
  if len <= n then
    t.slots <- Array.append t.slots (Array.make (max (n + 1 - len) len) None)

(* First/last granule of a page's range, as two functions rather than one
   returning a pair: [unregister] runs on the GC retirement path, where a
   boxed pair per freed page was the last host allocation of a
   steady-state cycle. *)
let[@inline] first_granule t (page : Page.t) = granule_of_addr t page.Page.start

let[@inline] last_granule t (page : Page.t) =
  granule_of_addr t (page.Page.start + page.Page.size - 1)

let register t page =
  let first = first_granule t page
  and last = last_granule t page in
  ensure t last;
  let entry = Some page in
  for g = first to last do
    Array.unsafe_set t.slots g entry
  done

(* The range is only re-registered after this (recycling unmaps it before
   the free lists can hand it out), so every entry still names [page]. *)
let unregister t page =
  let first = first_granule t page in
  Array.fill t.slots first (last_granule t page - first + 1) None

let[@inline] page_of_addr t addr =
  let g = granule_of_addr t addr in
  if g < 0 || g >= Array.length t.slots then None
  else Array.unsafe_get t.slots g
