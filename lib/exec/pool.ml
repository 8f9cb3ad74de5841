(* OCaml 5.1 runs at most 128 domains per process (Max_domains in
   caml/domain.h), the calling domain included. *)
let max_jobs = 127

(* HCSGC_JOBS overrides the clamp to 16 — the escape hatch for CI runners
   and big machines — but not the domain limit.  Malformed or non-positive
   values fall back silently so a stray environment variable can never
   break a run. *)
let default_jobs () =
  let fallback () = max 1 (min 16 (Domain.recommended_domain_count ())) in
  match Sys.getenv_opt "HCSGC_JOBS" with
  | None -> fallback ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n max_jobs
      | Some _ | None -> fallback ())

let map_array_in_order ~jobs ~order f xs =
  let n = Array.length xs in
  if Array.length order <> n then
    invalid_arg "Pool.map_array_in_order: order length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then
        invalid_arg "Pool.map_array_in_order: order is not a permutation";
      seen.(i) <- true)
    order;
  (* Each result, or failure with its backtrace, lands at its input index;
     [Domain.join] publishes the workers' writes to the caller. *)
  let results = Array.make n None in
  let run i =
    results.(i) <-
      Some
        (match f xs.(i) with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  (if jobs <= 1 then Array.iter run order
   else
     let next = Atomic.make 0 in
     let rec claim () =
       let k = Atomic.fetch_and_add next 1 in
       if k < n then begin
         run order.(k);
         claim ()
       end
     in
     List.init (min jobs n) (fun _ -> Domain.spawn claim)
     |> List.iter Domain.join);
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    results
