type t = {
  hotness : bool;
  coldpage : bool;
  cold_confidence : float;
  relocate_all_small_pages : bool;
  lazy_relocate : bool;
  tier_capacity_pages : int;
  lat_far : int;
  tier_promote : bool;
}

let zgc =
  {
    hotness = false;
    coldpage = false;
    cold_confidence = 0.0;
    relocate_all_small_pages = false;
    lazy_relocate = false;
    tier_capacity_pages = 0;
    lat_far = 800;
    tier_promote = true;
  }

let validate t =
  if t.coldpage && not t.hotness then
    Error "COLDPAGE requires HOTNESS to be enabled"
  else if not (t.cold_confidence >= 0.0 && t.cold_confidence <= 1.0) then
    Error "COLDCONFIDENCE must lie in [0, 1]"
  else if t.cold_confidence > 0.0 && not t.hotness then
    Error "COLDCONFIDENCE requires HOTNESS to be enabled"
  else if t.tier_capacity_pages < 0 then
    Error "TIER capacity must be non-negative"
  else if t.tier_capacity_pages > 0 && not t.hotness then
    Error "TIER requires HOTNESS to be enabled"
  else if t.lat_far <= 0 then Error "LATFAR must be positive"
  else Ok t

let make ?(hotness = zgc.hotness) ?(coldpage = zgc.coldpage)
    ?(cold_confidence = zgc.cold_confidence)
    ?(relocate_all_small_pages = zgc.relocate_all_small_pages)
    ?(lazy_relocate = zgc.lazy_relocate)
    ?(tier_capacity_pages = zgc.tier_capacity_pages) ?(lat_far = zgc.lat_far)
    ?(tier_promote = zgc.tier_promote) () =
  let t =
    { hotness; coldpage; cold_confidence; relocate_all_small_pages;
      lazy_relocate; tier_capacity_pages; lat_far; tier_promote }
  in
  match validate t with Ok t -> t | Error msg -> invalid_arg ("Config: " ^ msg)

(* Table 2, columns 0–18.  h = hotness, cp = coldpage, cc = cold confidence,
   ra = relocate all small pages, lz = lazy relocate. *)
let row ~h ~cp ~cc ~ra ~lz =
  make ~hotness:h ~coldpage:cp ~cold_confidence:cc ~relocate_all_small_pages:ra
    ~lazy_relocate:lz ()

let table2 =
  [
    (0, zgc);
    (1, zgc);
    (2, row ~h:false ~cp:false ~cc:0.0 ~ra:false ~lz:true);
    (3, row ~h:false ~cp:false ~cc:0.0 ~ra:true ~lz:false);
    (4, row ~h:false ~cp:false ~cc:0.0 ~ra:true ~lz:true);
    (5, row ~h:true ~cp:false ~cc:0.0 ~ra:false ~lz:false);
    (6, row ~h:true ~cp:false ~cc:0.5 ~ra:false ~lz:false);
    (7, row ~h:true ~cp:false ~cc:1.0 ~ra:false ~lz:false);
    (8, row ~h:true ~cp:false ~cc:0.0 ~ra:false ~lz:true);
    (9, row ~h:true ~cp:false ~cc:0.5 ~ra:false ~lz:true);
    (10, row ~h:true ~cp:false ~cc:1.0 ~ra:false ~lz:true);
    (11, row ~h:true ~cp:true ~cc:0.0 ~ra:false ~lz:false);
    (12, row ~h:true ~cp:true ~cc:0.5 ~ra:false ~lz:false);
    (13, row ~h:true ~cp:true ~cc:1.0 ~ra:false ~lz:false);
    (14, row ~h:true ~cp:true ~cc:0.0 ~ra:false ~lz:true);
    (15, row ~h:true ~cp:true ~cc:0.5 ~ra:false ~lz:true);
    (16, row ~h:true ~cp:true ~cc:1.0 ~ra:false ~lz:true);
    (17, row ~h:true ~cp:true ~cc:0.0 ~ra:true ~lz:false);
    (18, row ~h:true ~cp:true ~cc:0.0 ~ra:true ~lz:true);
  ]

let id_count = 19

let of_id n =
  match List.assoc_opt n table2 with
  | Some t -> t
  | None -> invalid_arg "Config.of_id: id must be in 0-18"

(* Validation rejects a NaN [cold_confidence], so structural equality is
   knob equality. *)
let equal (a : t) b = a = b

(* [to_string] destructures with a closed record pattern, so a knob added
   to [t] is a compile error here until it is named (as it is in
   [Runner.config_value_key]). *)
let to_string
    {
      hotness;
      coldpage;
      cold_confidence;
      relocate_all_small_pages;
      lazy_relocate;
      tier_capacity_pages;
      lat_far;
      tier_promote;
    } =
  let tiered = tier_capacity_pages > 0 in
  let parts =
    List.filter_map
      (fun x -> x)
      [
        (if hotness then Some "hot" else None);
        (if coldpage then Some "cp" else None);
        (if cold_confidence > 0.0 then
           Some (Printf.sprintf "cc%.1f" cold_confidence)
         else None);
        (if relocate_all_small_pages then Some "ra" else None);
        (if lazy_relocate then Some "lazy" else None);
        (* Tier parts appear only with tiering on, so every pre-tier
           configuration keeps its exact historical name. *)
        (if tiered then Some (Printf.sprintf "tier%d" tier_capacity_pages)
         else None);
        (if tiered && lat_far <> zgc.lat_far then
           Some (Printf.sprintf "far%d" lat_far)
         else None);
        (if tiered && not tier_promote then Some "nopromote" else None);
      ]
  in
  match parts with [] -> "zgc" | _ -> String.concat "+" parts

let pp fmt t = Format.pp_print_string fmt (to_string t)
