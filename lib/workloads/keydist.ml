module Rng = Hcsgc_util.Rng

type spec =
  | Uniform
  | Hotset of { hot_keys : int; hot_bias : float }
  | Zipfian of { theta : float }
  | Sequential of { stride : int }

type t = {
  spec : spec;
  key_space : int;
  (* Zipfian constants (Gray et al.'s incremental generator, as in YCSB):
     precomputed once so sampling is two float draws and a power. *)
  zetan : float;
  eta : float;
  theta : float;
  (* Sequential cursor. *)
  mutable cursor : int;
}

let zeta n theta =
  let sum = ref 0.0 in
  for i = 1 to n do
    sum := !sum +. (1.0 /. (float_of_int i ** theta))
  done;
  !sum

let validate spec ~key_space =
  if key_space <= 0 then invalid_arg "Keydist.create: key_space must be positive";
  (match spec with
  | Uniform -> ()
  | Hotset { hot_keys; hot_bias } ->
      if hot_keys <= 0 then invalid_arg "Keydist.create: hot_keys must be positive";
      if hot_bias < 0.0 || hot_bias > 1.0 then
        invalid_arg "Keydist.create: hot_bias outside [0, 1]"
  | Zipfian { theta } ->
      if theta < 0.0 || theta >= 1.0 then
        invalid_arg "Keydist.create: zipfian theta outside [0, 1)"
  | Sequential { stride } ->
      if stride <= 0 then invalid_arg "Keydist.create: stride must be positive")

let create spec ~key_space =
  validate spec ~key_space;
  let zetan, eta, theta =
    match spec with
    | Zipfian { theta } ->
        let zetan = zeta key_space theta in
        let zeta2 = zeta 2 theta in
        let eta =
          (1.0 -. ((2.0 /. float_of_int key_space) ** (1.0 -. theta)))
          /. (1.0 -. (zeta2 /. zetan))
        in
        (zetan, eta, theta)
    | _ -> (0.0, 0.0, 0.0)
  in
  { spec; key_space; zetan; eta; theta; cursor = 0 }

let spec t = t.spec
let key_space t = t.key_space

let sample t rng =
  match t.spec with
  | Uniform -> Rng.int rng t.key_space
  | Hotset { hot_keys; hot_bias } ->
      (* Bit-for-bit the LRU service's historical inline generator: one
         float draw for the bias coin, one int draw either way. *)
      if Rng.float rng 1.0 < hot_bias then
        Rng.int rng (max 1 hot_keys) * 31 mod t.key_space
      else Rng.int rng t.key_space
  | Zipfian _ ->
      let u = Rng.float rng 1.0 in
      let uz = u *. t.zetan in
      if uz < 1.0 then 0
      else if uz < 1.0 +. (0.5 ** t.theta) then 1
      else
        let rank =
          float_of_int t.key_space
          *. (((t.eta *. u) -. t.eta +. 1.0) ** (1.0 /. (1.0 -. t.theta)))
        in
        min (t.key_space - 1) (int_of_float rank)
  | Sequential { stride } ->
      let k = t.cursor in
      t.cursor <- (t.cursor + stride) mod t.key_space;
      k

let spec_key = function
  | Uniform -> "uniform"
  | Hotset { hot_keys; hot_bias } ->
      Printf.sprintf "hotset(%d,%h)" hot_keys hot_bias
  | Zipfian { theta } -> Printf.sprintf "zipf(%h)" theta
  | Sequential { stride } -> Printf.sprintf "seq(%d)" stride

let spec_of_string s =
  let parts = String.split_on_char ':' s in
  match parts with
  | [ "uniform" ] -> Ok Uniform
  | [ "zipf" ] -> Ok (Zipfian { theta = 0.99 })
  | [ "zipf"; theta ] -> (
      match float_of_string_opt theta with
      | Some theta when theta >= 0.0 && theta < 1.0 -> Ok (Zipfian { theta })
      | _ -> Error (Printf.sprintf "bad zipf theta %S (want [0, 1))" theta))
  | [ "seq" ] -> Ok (Sequential { stride = 1 })
  | [ "seq"; stride ] -> (
      match int_of_string_opt stride with
      | Some stride when stride > 0 -> Ok (Sequential { stride })
      | _ -> Error (Printf.sprintf "bad seq stride %S (want > 0)" stride))
  | [ "hotset"; args ] -> (
      match String.split_on_char ',' args with
      | [ hot; bias ] -> (
          match (int_of_string_opt hot, float_of_string_opt bias) with
          | Some hot_keys, Some hot_bias
            when hot_keys > 0 && hot_bias >= 0.0 && hot_bias <= 1.0 ->
              Ok (Hotset { hot_keys; hot_bias })
          | _ -> Error (Printf.sprintf "bad hotset args %S (want HOT,BIAS)" args))
      | _ -> Error (Printf.sprintf "bad hotset args %S (want HOT,BIAS)" args))
  | _ ->
      Error
        (Printf.sprintf
           "unknown key distribution %S (want uniform | hotset:HOT,BIAS | \
            zipf[:THETA] | seq[:STRIDE])"
           s)
