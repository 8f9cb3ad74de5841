(* Machine-speed calibration.

   The benchmark's host may be shared: other tenants can slow its CPU for
   minutes at a time, by up to 2.6x on the host the baseline was measured
   on.  A fixed kernel that uses none of the repository's code (random
   reads and writes over a 4 MiB table, mixed with xorshift arithmetic) is
   timed next to every pass, and host times are reported in reference
   seconds: raw seconds x [ref_kernel_s] / kernel seconds.  A slowdown that
   hits the kernel and the simulator alike cancels out; a change to the
   simulator does not touch the kernel. *)

(* What the kernel takes on a quiet 2-vCPU Xeon VM (0.095-0.098 s), so
   reference seconds read close to host seconds there. *)
let ref_kernel_s = 0.1

let size = 1 lsl 19

(* A Bigarray, outside the OCaml heap: an int array this size would add
   half a million words to every major GC mark of the simulation. *)
let table =
  lazy
    (let a = Bigarray.(Array1.create int c_layout size) in
     for i = 0 to size - 1 do a.{i} <- i * 7919 land (size - 1) done;
     a)

let kernel () =
  let a = Lazy.force table in
  let x = ref 1 and s = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 20_000_000 do
    x := !x lxor (!x lsl 13) land 0xffffffff;
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17) land 0xffffffff;
    let j = !x land (size - 1) in
    s := !s + a.{j};
    a.{j} <- !s land (size - 1)
  done;
  ignore (Sys.opaque_identity !s);
  Unix.gettimeofday () -. t0

let reference ~kernel seconds = seconds *. ref_kernel_s /. kernel
