type t = int

type color = M0 | M1 | R

let addr_bits = 48
let addr_mask = (1 lsl addr_bits) - 1
let m0_bit = 1 lsl addr_bits
let m1_bit = 1 lsl (addr_bits + 1)
let r_bit = 1 lsl (addr_bits + 2)
let color_mask = m0_bit lor m1_bit lor r_bit

let null = 0

let[@inline] is_null p = p = 0

let[@inline] bit_of = function M0 -> m0_bit | M1 -> m1_bit | R -> r_bit

let make c addr =
  if addr <= 0 || addr > addr_mask then
    invalid_arg "Addr.make: address out of range";
  addr lor bit_of c

let[@inline] addr p = p land addr_mask

let color p =
  match p land color_mask with
  | b when b = m0_bit -> M0
  | b when b = m1_bit -> M1
  | b when b = r_bit -> R
  | _ -> invalid_arg "Addr.color: null or malformed pointer"

let[@inline] has_color c p = (not (is_null p)) && p land bit_of c <> 0

let retint c p = addr p lor bit_of c

let next_mark_color = function
  | M0 -> M1
  | M1 -> M0
  | R -> invalid_arg "Addr.next_mark_color: R is not a mark colour"

let color_to_string = function M0 -> "M0" | M1 -> "M1" | R -> "R"
