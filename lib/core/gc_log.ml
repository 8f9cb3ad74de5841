type pause = STW1 | STW2 | STW3

type event =
  | Cycle_start of { cycle : int; wall : int; heap_used : int }
  | Pause of { cycle : int; pause : pause; cost : int; wall : int }
  | Mark_end of { cycle : int; marked_objects : int; wall : int }
  | Ec_selected of { cycle : int; small : int; medium : int; wall : int }
  | Relocation_deferred of { cycle : int; pages : int; wall : int }
  | Pages_demoted of { cycle : int; pages : int; wall : int }
  | Cycle_end of { cycle : int; wall : int; heap_used : int }

type sink = event -> unit

let null_sink (_ : event) = ()

let is_null (s : sink) = s == null_sink

let pause_name = function
  | STW1 -> "Pause Mark Start"
  | STW2 -> "Pause Mark End"
  | STW3 -> "Pause Relocate Start"
