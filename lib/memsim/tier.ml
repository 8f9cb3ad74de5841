(* A far-memory tier behind the LLC (CXL/NVM-style): a capacity-bounded
   set of resident granules with a single flat access latency.  The tier
   knows nothing about heap pages — residency is keyed by raw byte
   address, granule-aligned — so the module stays below hcsgc_heap in the
   dependency order and Machine can consult it at LLC-miss time. *)

type t = {
  granule_bytes : int;
  capacity_bytes : int;
  lat_far : int;
  mutable resident : Bytes.t;
      (* bit per granule index; grows on demand.  The heap hands out
         granules densely from 0, so its length tracks the heap's span. *)
  mutable used_bytes : int;
  mutable peak_bytes : int;
}

let create ~granule_bytes ~capacity_bytes ~lat_far () =
  if granule_bytes <= 0 then
    invalid_arg "Tier.create: granule_bytes must be positive";
  if capacity_bytes < 0 then
    invalid_arg "Tier.create: capacity_bytes must be non-negative";
  if capacity_bytes mod granule_bytes <> 0 then
    invalid_arg "Tier.create: capacity must be a whole number of granules";
  if lat_far <= 0 then invalid_arg "Tier.create: lat_far must be positive";
  {
    granule_bytes;
    capacity_bytes;
    lat_far;
    resident = Bytes.empty;
    used_bytes = 0;
    peak_bytes = 0;
  }

let granule_bytes t = t.granule_bytes
let capacity_bytes t = t.capacity_bytes
let lat_far t = t.lat_far
let used_bytes t = t.used_bytes
let peak_bytes t = t.peak_bytes

(* A negative granule's byte index is huge after [lsr], so it reads as
   absent like any granule past the end. *)
let[@inline] has t g =
  let byte = g lsr 3 in
  byte < Bytes.length t.resident
  && Char.code (Bytes.unsafe_get t.resident byte) land (1 lsl (g land 7)) <> 0

let[@inline] resident t addr = has t (addr / t.granule_bytes)

let set_bit t g on =
  let byte = g lsr 3 in
  let len = Bytes.length t.resident in
  if byte >= len then begin
    let bits = Bytes.make (max (2 * len) (byte + 1)) '\000' in
    Bytes.blit t.resident 0 bits 0 len;
    t.resident <- bits
  end;
  let c = Char.code (Bytes.get t.resident byte) and m = 1 lsl (g land 7) in
  Bytes.set t.resident byte (Char.chr (if on then c lor m else c land lnot m))

let check_range name t ~addr ~bytes =
  if addr < 0 || bytes <= 0 then
    invalid_arg (name ^ ": range must be non-empty and non-negative");
  if addr mod t.granule_bytes <> 0 || bytes mod t.granule_bytes <> 0 then
    invalid_arg (name ^ ": range must be granule-aligned")

let would_fit t ~bytes = t.used_bytes + bytes <= t.capacity_bytes

let demote t ~addr ~bytes =
  check_range "Tier.demote" t ~addr ~bytes;
  if not (would_fit t ~bytes) then false
  else begin
    let first = addr / t.granule_bytes in
    let last = (addr + bytes - 1) / t.granule_bytes in
    for g = first to last do
      if has t g then invalid_arg "Tier.demote: granule already resident";
      set_bit t g true
    done;
    t.used_bytes <- t.used_bytes + bytes;
    if t.used_bytes > t.peak_bytes then t.peak_bytes <- t.used_bytes;
    true
  end

let promote t ~addr ~bytes =
  check_range "Tier.promote" t ~addr ~bytes;
  let first = addr / t.granule_bytes in
  let last = (addr + bytes - 1) / t.granule_bytes in
  for g = first to last do
    if not (has t g) then invalid_arg "Tier.promote: granule not resident";
    set_bit t g false
  done;
  t.used_bytes <- t.used_bytes - bytes

let reset t =
  Bytes.fill t.resident 0 (Bytes.length t.resident) '\000';
  t.used_bytes <- 0;
  t.peak_bytes <- 0
