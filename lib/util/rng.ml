(* The 64-bit state lives in 8 bytes, read and written with the unboxed
   int64 primitives, and the mixers are inlined, so a draw keeps every
   intermediate in registers and allocates nothing; a mutable [int64]
   field would box each new state. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let split t =
  (* Derive a new state from the parent's next output, re-mixed so parent and
     child streams do not overlap. *)
  let s = next64 t in
  of_state (mix64 (Int64.add s golden_gamma))

let[@inline] next t =
  (* Keep results non-negative and within OCaml's int range. *)
  Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let limit = ((max_int lsr 1) * 2) - bound + 1 in
  let r = ref (next t) in
  while !r - (!r mod bound) > limit do
    r := next t
  done;
  !r mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next64 t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential t mean =
  let u = Float.max 1e-12 (float t 1.0) in
  -.mean *. Float.log u
