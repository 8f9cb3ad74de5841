(* Pinned output digests (expected.tsv).

   One line per job: code_version, workload, seed, job label and the MD5
   of the job's canonical output, tab-separated.  Blank lines and lines
   starting with '#' are ignored.  A digest is only compared under the
   code_version it was pinned for: a change that bumps
   Fingerprint.code_version leaves every job unpinned rather than failed,
   until the pins are regenerated with --emit-pins. *)

type entry = {
  code_version : string;
  workload : string;
  seed : int;
  job : string;
  md5 : string;
}

let is_md5 s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let to_line e =
  Printf.sprintf "%s\t%s\t%d\t%s\t%s" e.code_version e.workload e.seed e.job e.md5

let parse_line line =
  match String.split_on_char '\t' line with
  | [ code_version; workload; seed; job; md5 ] -> (
      match int_of_string_opt seed with
      | Some seed when seed >= 0 && is_md5 md5 && code_version <> ""
                       && workload <> "" && job <> "" ->
          Ok { code_version; workload; seed; job; md5 }
      | _ -> Error "bad seed or digest")
  | fields -> Error (Printf.sprintf "%d fields, expected 5" (List.length fields))

let key e = (e.code_version, e.workload, e.seed, e.job)

let parse text =
  let tbl = Hashtbl.create 256 in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (n + 1) acc rest
        else
          match parse_line line with
          | Error msg -> Error (Printf.sprintf "line %d: %s" n msg)
          | Ok e -> (
              match Hashtbl.find_opt tbl (key e) with
              | Some md5 when md5 <> e.md5 ->
                  Error (Printf.sprintf "line %d: conflicting digest for %s" n e.job)
              | Some _ -> go (n + 1) acc rest
              | None ->
                  Hashtbl.add tbl (key e) e.md5;
                  go (n + 1) (e :: acc) rest))
  in
  go 1 [] (String.split_on_char '\n' text)

type verdict = Match | Mismatch of string | Unpinned

let check entries ~code_version ~workload ~seed ~job md5 =
  match
    List.find_opt (fun e -> key e = (code_version, workload, seed, job)) entries
  with
  | None -> Unpinned
  | Some e when e.md5 = md5 -> Match
  | Some e -> Mismatch e.md5
