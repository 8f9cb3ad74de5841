module Int_tbl = Hcsgc_util.Int_tbl

type t = Int_tbl.t

type claim_result = Claimed | Already of int

(* Offsets and addresses are both non-negative, so Int_tbl's -1
   sentinel is unambiguous on both sides of the binding. *)
let create () = Int_tbl.create ~capacity:16 ()

let claim t ~offset ~new_addr =
  match Int_tbl.add_if_absent t ~key:offset ~value:new_addr with
  | -1 -> Claimed
  | existing -> Already existing

let get t ~offset = Int_tbl.get t ~key:offset ~default:(-1)

let find t ~offset =
  match Int_tbl.get t ~key:offset ~default:(-1) with
  | -1 -> None
  | new_addr -> Some new_addr

let entries t = Int_tbl.length t

let iter t f = Int_tbl.iter t (fun offset new_addr -> f ~offset ~new_addr)
