let sort (a : int array) =
  let n = Array.length a in
  (* Move [x] down from [root] of the max-heap [a.(0 .. len - 1)]. *)
  let rec sift x root len =
    let child = (2 * root) + 1 in
    if child >= len then a.(root) <- x
    else
      let child =
        if child + 1 < len && a.(child + 1) > a.(child) then child + 1
        else child
      in
      if a.(child) > x then begin
        a.(root) <- a.(child);
        sift x child len
      end
      else a.(root) <- x
  in
  for i = (n / 2) - 1 downto 0 do
    sift a.(i) i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(last) in
    a.(last) <- a.(0);
    sift x 0 last
  done
