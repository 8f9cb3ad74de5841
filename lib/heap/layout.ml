type t = {
  small_page : int;
  medium_page : int;
  small_obj_max : int;
  medium_obj_max : int;
  header_bytes : int;
  word_bytes : int;
}

type size_class = Small | Medium | Large

let is_pow2 n = n > 0 && n land (n - 1) = 0

let of_small_page small_page =
  {
    small_page;
    medium_page = 16 * small_page;
    small_obj_max = small_page / 8;
    medium_obj_max = 2 * small_page;
    header_bytes = 16;
    word_bytes = 8;
  }

let paper = of_small_page (2 * 1024 * 1024)

let scaled ~small_page =
  if small_page < 4096 || not (is_pow2 small_page) then
    invalid_arg "Layout.scaled: small page must be a power of two >= 4096";
  of_small_page small_page

let class_of_object_size t size =
  if size <= 0 then invalid_arg "Layout.class_of_object_size: non-positive size"
  else if size <= t.small_obj_max then Small
  else if size <= t.medium_obj_max then Medium
  else Large

let granule t = t.small_page

let round_up n align = (n + align - 1) / align * align

let page_bytes_for t cls obj_size =
  match cls with
  | Small -> t.small_page
  | Medium -> t.medium_page
  | Large -> round_up obj_size (granule t)

let object_bytes t ~nrefs ~nwords =
  if nrefs < 0 || nwords < 0 then invalid_arg "Layout.object_bytes: negative";
  let raw = t.header_bytes + (t.word_bytes * (nrefs + nwords)) in
  round_up raw t.word_bytes
