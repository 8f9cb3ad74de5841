let order ~estimate n =
  let est = Array.init n estimate in
  let idx = Array.init n (fun i -> i) in
  let compare_jobs a b =
    match (est.(a), est.(b)) with
    | None, None -> compare a b
    | None, Some _ -> -1 (* unknown cost: run early, learn its cost *)
    | Some _, None -> 1
    | Some ca, Some cb ->
        let c = compare cb ca (* longest first *) in
        if c <> 0 then c else compare a b
  in
  Array.sort compare_jobs idx;
  idx
