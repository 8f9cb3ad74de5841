module Vm = Hcsgc_runtime.Vm
module Rng = Hcsgc_util.Rng

type params = {
  mutators : int;
  elements_per_mutator : int;
  element_words : int;
  rounds : int;
  accesses_per_round : int;
  garbage_every : int;
  garbage_words : int;
  seed : int;
}

type result = {
  checksums : int array;
  accesses : int;
}

let default =
  {
    mutators = 8;
    elements_per_mutator = 4_000;
    element_words = 6;
    rounds = 40;
    accesses_per_round = 4_000;
    garbage_every = 4;
    garbage_words = 16;
    seed = 0;
  }

let run vm p =
  if p.mutators <= 0 || p.elements_per_mutator <= 0 || p.rounds <= 0 then
    invalid_arg "Multi_synthetic.run: non-positive parameter";
  if p.mutators > Vm.mutator_count vm then
    invalid_arg "Multi_synthetic.run: more mutators than VM threads";
  (* One element array per mutator, all hanging off a shared root: each
     thread's working set is private (its own pages, its own cache
     footprint) while the heap, GC schedule and LLC stay shared. *)
  let root = Vm.alloc vm ~nrefs:p.mutators ~nwords:0 in
  Vm.add_root vm root;
  for m = 0 to p.mutators - 1 do
    let arr = Vm.alloc ~m vm ~nrefs:p.elements_per_mutator ~nwords:0 in
    Vm.store_ref ~m vm root m (Some arr);
    for i = 0 to p.elements_per_mutator - 1 do
      let o = Vm.alloc ~m vm ~nrefs:0 ~nwords:p.element_words in
      Vm.store_word ~m vm o 0 ((m lsl 16) + i);
      Vm.store_ref ~m vm arr i (Some o)
    done
  done;
  let checksums = Array.make p.mutators 0 in
  let accesses = ref 0 in
  (* Uniform over each mutator's private array, via the shared generator
     (one [Rng.int] per sample — byte-identical to the old inline draw). *)
  let dist = Keydist.create Keydist.Uniform ~key_space:p.elements_per_mutator in
  (* Round-robin slices: thread m performs its whole slice of a round
     before thread m+1 — a deterministic cooperative interleaving, with
     each thread walking its own array in a private pseudo-random order. *)
  for round = 1 to p.rounds do
    for m = 0 to p.mutators - 1 do
      match Vm.load_ref ~m vm root m with
      | None -> assert false
      | Some arr ->
          let rng = Rng.create (p.seed + (round * p.mutators) + m) in
          for j = 1 to p.accesses_per_round do
            let idx = Keydist.sample dist rng in
            (match Vm.load_ref ~m vm arr idx with
            | Some o ->
                checksums.(m) <-
                  checksums.(m) lxor (Vm.load_word ~m vm o 0 + j);
                Vm.store_word ~m vm o (p.element_words - 1) (round + j)
            | None -> assert false);
            incr accesses;
            if p.garbage_every > 0 && j mod p.garbage_every = 0 then
              ignore (Vm.alloc ~m vm ~nrefs:0 ~nwords:p.garbage_words)
          done
    done
  done;
  Vm.remove_root vm root;
  { checksums; accesses = !accesses }
