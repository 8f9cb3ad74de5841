module Vm = Hcsgc_runtime.Vm
module Rng = Hcsgc_util.Rng

type op =
  | Alloc of { reg : int; nrefs : int; nwords : int }
  | Load of { reg : int; from_reg : int; slot : int }
  | Store of { to_reg : int; slot : int; from_reg : int }
  | Store_null of { to_reg : int; slot : int }
  | Read_word of { reg : int; word : int }
  | Write_word of { reg : int; word : int; value : int }
  | Drop of { reg : int }
  | Work of int

type t = { registers : int; ops : op array }

type result = {
  executed : int;
  checksum : int;
}

let validate t =
  if t.registers <= 0 then Error "trace needs at least one register"
  else begin
    let bad = ref None in
    let reg_ok r = r >= 0 && r < t.registers in
    Array.iteri
      (fun i op ->
        if !bad = None then
          let ok =
            match op with
            | Alloc { reg; nrefs; nwords } ->
                reg_ok reg && nrefs >= 0 && nwords >= 0
            | Load { reg; from_reg; slot } ->
                reg_ok reg && reg_ok from_reg && slot >= 0
            | Store { to_reg; slot; from_reg } ->
                reg_ok to_reg && reg_ok from_reg && slot >= 0
            | Store_null { to_reg; slot } -> reg_ok to_reg && slot >= 0
            | Read_word { reg; word } | Write_word { reg; word; value = _ } ->
                reg_ok reg && word >= 0
            | Drop { reg } -> reg_ok reg
            | Work n -> n >= 0
          in
          if not ok then bad := Some i)
      t.ops;
    match !bad with
    | None -> Ok ()
    | Some i -> Error (Printf.sprintf "invalid operation at index %d" i)
  end

let replay vm t =
  (match validate t with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Trace.replay: " ^ msg));
  (* The register file is a managed object: its slots root everything the
     trace holds, so replay respects the rooting discipline for free. *)
  let file = Vm.alloc vm ~nrefs:t.registers ~nwords:0 in
  Vm.add_root vm file;
  let checksum = ref 0 in
  let executed = ref 0 in
  let objs = Hcsgc_heap.Heap.objects (Vm.heap vm) in
  let in_bounds obj slot = slot < Hcsgc_heap.Heap_obj.nrefs objs obj in
  let word_in_bounds obj w = w < Hcsgc_heap.Heap_obj.nwords objs obj in
  Array.iter
    (fun op ->
      incr executed;
      match op with
      | Alloc { reg; nrefs; nwords } ->
          let o = Vm.alloc vm ~nrefs ~nwords in
          Vm.store_ref vm file reg (Some o)
      | Load { reg; from_reg; slot } -> (
          match Vm.load_ref vm file from_reg with
          | Some src when in_bounds src slot -> (
              match Vm.load_ref vm src slot with
              | Some _ as target -> Vm.store_ref vm file reg target
              | None -> ())
          | _ -> ())
      | Store { to_reg; slot; from_reg } -> (
          match (Vm.load_ref vm file to_reg, Vm.load_ref vm file from_reg) with
          | Some dst, (Some _ as src) when in_bounds dst slot ->
              Vm.store_ref vm dst slot src
          | _ -> ())
      | Store_null { to_reg; slot } -> (
          match Vm.load_ref vm file to_reg with
          | Some dst when in_bounds dst slot -> Vm.store_ref vm dst slot None
          | _ -> ())
      | Read_word { reg; word } -> (
          match Vm.load_ref vm file reg with
          | Some o when word_in_bounds o word ->
              checksum := !checksum lxor (Vm.load_word vm o word + !executed)
          | _ -> ())
      | Write_word { reg; word; value } -> (
          match Vm.load_ref vm file reg with
          | Some o when word_in_bounds o word -> Vm.store_word vm o word value
          | _ -> ())
      | Drop { reg } -> Vm.store_ref vm file reg None
      | Work n -> Vm.work vm n)
    t.ops;
  Vm.remove_root vm file;
  { executed = !executed; checksum = !checksum }

let synthesize ~rng ~ops ~registers ?(nrefs = 2) ?(nwords = 2) ?(churn = 0.2)
    () =
  if registers <= 0 || ops < 0 then
    invalid_arg "Trace.synthesize: bad parameters";
  let reg () = Rng.int rng registers in
  let body =
    Array.init ops (fun _ ->
        if Rng.float rng 1.0 < churn then
          match Rng.int rng 2 with
          | 0 -> Drop { reg = reg () }
          | _ -> Alloc { reg = reg (); nrefs; nwords }
        else
          match Rng.int rng 5 with
          | 0 -> Alloc { reg = reg (); nrefs; nwords }
          | 1 -> Load { reg = reg (); from_reg = reg (); slot = Rng.int rng nrefs }
          | 2 ->
              Store
                { to_reg = reg (); slot = Rng.int rng nrefs; from_reg = reg () }
          | 3 -> Read_word { reg = reg (); word = Rng.int rng nwords }
          | _ ->
              Write_word
                { reg = reg (); word = Rng.int rng nwords;
                  value = Rng.int rng 1_000_000 })
  in
  (* Seed every register so early loads have something to find. *)
  let prologue = Array.init registers (fun reg -> Alloc { reg; nrefs; nwords }) in
  { registers; ops = Array.append prologue body }

let pp_op fmt = function
  | Alloc { reg; nrefs; nwords } ->
      Format.fprintf fmt "r%d := alloc(refs=%d, words=%d)" reg nrefs nwords
  | Load { reg; from_reg; slot } ->
      Format.fprintf fmt "r%d := r%d.[%d]" reg from_reg slot
  | Store { to_reg; slot; from_reg } ->
      Format.fprintf fmt "r%d.[%d] := r%d" to_reg slot from_reg
  | Store_null { to_reg; slot } -> Format.fprintf fmt "r%d.[%d] := null" to_reg slot
  | Read_word { reg; word } -> Format.fprintf fmt "read r%d.w%d" reg word
  | Write_word { reg; word; value } ->
      Format.fprintf fmt "r%d.w%d := %d" reg word value
  | Drop { reg } -> Format.fprintf fmt "drop r%d" reg
  | Work n -> Format.fprintf fmt "work %d" n
