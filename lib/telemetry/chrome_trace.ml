let tid = function Recorder.Gc -> 0 | Recorder.Mutator m -> m + 1

let track_name = function
  | Recorder.Gc -> "GC"
  | Recorder.Mutator m -> Printf.sprintf "mutator %d" m

(* Minimal JSON string escaping: quote, backslash and control characters
   (span names are ASCII, but stay strict anyway). *)
let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pp_args fmt args =
  Format.fprintf fmt "{";
  List.iteri
    (fun i (k, v) ->
      Format.fprintf fmt "%s\"%s\":%d" (if i = 0 then "" else ",") (escape k) v)
    args;
  Format.fprintf fmt "}"

let write fmt r =
  let sep = ref "" in
  let event pp =
    Format.fprintf fmt "%s@\n" !sep;
    sep := ",";
    pp fmt
  in
  Format.fprintf fmt "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  event (fun fmt ->
      Format.fprintf fmt
        "{\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"hcsgc\"}}");
  List.iter
    (fun track ->
      event (fun fmt ->
          Format.fprintf fmt
            "{\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":%d,\"name\":\
             \"thread_name\",\"args\":{\"name\":\"%s\"}}"
            (tid track)
            (escape (track_name track))))
    (Recorder.tracks r);
  Recorder.fold_spans ~with_args:true r ~init:()
    (fun () track kind ~name ~start ~stop ~args ->
      event (fun fmt ->
          match kind with
          | Recorder.Slice ->
              Format.fprintf fmt
                "{\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":0,\"tid\":%d,\
                 \"name\":\"%s\",\"args\":%a}"
                start (stop - start) (tid track) (escape name) pp_args args
          | Recorder.Instant ->
              Format.fprintf fmt
                "{\"ph\":\"i\",\"ts\":%d,\"pid\":0,\"tid\":%d,\"s\":\"t\",\
                 \"name\":\"%s\",\"args\":%a}"
                start (tid track) (escape name) pp_args args));
  List.iter
    (fun (s : Recorder.sample) ->
      event (fun fmt ->
          Format.fprintf fmt
            "{\"ph\":\"C\",\"ts\":%d,\"pid\":0,\"tid\":0,\"name\":\"heap\",\
             \"args\":{\"used\":%d,\"hot\":%d}}"
            s.Recorder.wall s.Recorder.heap_used s.Recorder.hot_bytes))
    (Recorder.samples r);
  Format.fprintf fmt "@\n]}@\n"

let to_string r =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  write fmt r;
  Format.pp_print_flush fmt ();
  Buffer.contents buf
