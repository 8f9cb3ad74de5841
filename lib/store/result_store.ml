type t = {
  dir : string;
  mutex : Mutex.t;
  costs : (string, int * float) Hashtbl.t;  (* key -> (count, total seconds) *)
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable stored : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

type counters = {
  hits : int;
  misses : int;
  corrupt : int;
  stored : int;
  bytes_read : int;
  bytes_written : int;
}

let magic = "hcsgc-result 1"
let costs_file t = Filename.concat t.dir "costs.tsv"
let entry_path t fp = Filename.concat t.dir (Fingerprint.to_hex fp ^ ".v1")
let dir t = t.dir

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.is_directory path -> () (* raced another writer *)
  end

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* Atomic publish: write the full contents to a fresh temp file in the
   same directory, then rename over the target.  Readers either see the
   old entry or the new one, never a prefix. *)
let write_atomically ~dir ~path contents =
  let tmp = Filename.temp_file ~temp_dir:dir ".write" ".tmp" in
  let ok =
    try
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc contents);
      true
    with Sys_error _ -> false
  in
  if ok then Sys.rename tmp path
  else (try Sys.remove tmp with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Cost model persistence                                              *)
(* ------------------------------------------------------------------ *)

let sanitize_key key =
  String.map (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c) key

let load_costs t =
  match read_file (costs_file t) with
  | None -> ()
  | Some contents ->
      String.split_on_char '\n' contents
      |> List.iter (fun line ->
             match String.split_on_char '\t' line with
             | [ key; count; total ] -> (
                 match (int_of_string_opt count, float_of_string_opt total) with
                 | Some n, Some s when n > 0 && Float.is_finite s ->
                     Hashtbl.replace t.costs key (n, s)
                 | _ -> () (* malformed row: costs are advisory, drop it *))
             | _ -> ())

let save_costs t =
  let rows =
    Hashtbl.fold (fun key (n, s) acc -> (key, n, s) :: acc) t.costs []
    |> List.sort compare
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun (key, n, s) -> Printf.bprintf buf "%s\t%d\t%h\n" key n s)
    rows;
  write_atomically ~dir:t.dir ~path:(costs_file t) (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Entry envelope                                                      *)
(* ------------------------------------------------------------------ *)

let encode_entry ~cost payload =
  Printf.sprintf "%s\n%s %d %h\n%s" magic
    (Digest.to_hex (Digest.string payload))
    (String.length payload) cost payload

(* Returns the payload iff the envelope is structurally whole: right
   magic+version, self-reported length matches, checksum matches. *)
let decode_entry contents =
  match String.index_opt contents '\n' with
  | None -> None
  | Some nl1 -> (
      if String.sub contents 0 nl1 <> magic then None
      else
        match String.index_from_opt contents (nl1 + 1) '\n' with
        | None -> None
        | Some nl2 -> (
            let header = String.sub contents (nl1 + 1) (nl2 - nl1 - 1) in
            let payload =
              String.sub contents (nl2 + 1) (String.length contents - nl2 - 1)
            in
            match String.split_on_char ' ' header with
            | [ digest_hex; len; _cost ] ->
                if
                  int_of_string_opt len = Some (String.length payload)
                  && String.equal digest_hex
                       (Digest.to_hex (Digest.string payload))
                then Some payload
                else None
            | _ -> None))

(* ------------------------------------------------------------------ *)
(* API                                                                 *)
(* ------------------------------------------------------------------ *)

let open_ ~dir =
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  let t =
    {
      dir;
      mutex = Mutex.create ();
      costs = Hashtbl.create 32;
      hits = 0;
      misses = 0;
      corrupt = 0;
      stored = 0;
      bytes_read = 0;
      bytes_written = 0;
    }
  in
  load_costs t;
  t

let find t fp =
  with_lock t (fun () ->
      let path = entry_path t fp in
      match read_file path with
      | None ->
          t.misses <- t.misses + 1;
          None
      | Some contents -> (
          match decode_entry contents with
          | Some payload ->
              t.hits <- t.hits + 1;
              t.bytes_read <- t.bytes_read + String.length payload;
              Some payload
          | None ->
              (* Truncated or bit-flipped: drop it so the recomputed
                 entry starts from a clean slate, and report a miss. *)
              t.corrupt <- t.corrupt + 1;
              t.misses <- t.misses + 1;
              (try Sys.remove path with Sys_error _ -> ());
              None))

let mem t fp =
  with_lock t (fun () ->
      match read_file (entry_path t fp) with
      | None -> false
      | Some contents -> Option.is_some (decode_entry contents))

let add t fp ?cost_key ~cost payload =
  with_lock t (fun () ->
      write_atomically ~dir:t.dir ~path:(entry_path t fp)
        (encode_entry ~cost payload);
      t.stored <- t.stored + 1;
      t.bytes_written <- t.bytes_written + String.length payload;
      match cost_key with
      | None -> ()
      | Some key ->
          let key = sanitize_key key in
          let n, s =
            Option.value (Hashtbl.find_opt t.costs key) ~default:(0, 0.0)
          in
          Hashtbl.replace t.costs key (n + 1, s +. cost);
          save_costs t)

let estimate t ~cost_key =
  with_lock t (fun () ->
      Hashtbl.find_opt t.costs (sanitize_key cost_key)
      |> Option.map (fun (n, s) -> s /. float_of_int n))

(* [find] counted the entry as a hit and its bytes as read; it is a miss
   after all. *)
let note_invalid t payload =
  with_lock t (fun () ->
      t.hits <- t.hits - 1;
      t.bytes_read <- t.bytes_read - String.length payload;
      t.misses <- t.misses + 1;
      t.corrupt <- t.corrupt + 1)

let counters t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        corrupt = t.corrupt;
        stored = t.stored;
        bytes_read = t.bytes_read;
        bytes_written = t.bytes_written;
      })

