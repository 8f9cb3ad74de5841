type t = { mutex : Mutex.t; emit : string -> unit }

let create emit = { mutex = Mutex.create (); emit }

let say t line =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) (fun () -> t.emit line)
