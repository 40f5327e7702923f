type metric_class = Timing | Deterministic
type direction = Higher_better | Lower_better | Neutral

type change = {
  key : string;
  cls : metric_class;
  dir : direction;
  old_v : float option;
  new_v : float option;
  delta_pct : float;
}

(* ------------------------------------------------------------------ *)
(* flattening *)

let flatten (r : Report.t) =
  let entries =
    List.concat_map
      (function
        | Metric.Counter (name, v) -> [ (name, float_of_int v) ]
        | Metric.Gauge (name, v) -> [ (name, v) ]
        | Metric.Histogram (name, s) ->
          [
            (name ^ ".n", float_of_int s.Metric.n);
            (name ^ ".min", s.Metric.min);
            (name ^ ".max", s.Metric.max);
            (name ^ ".mean", s.Metric.mean);
            (name ^ ".p50", s.Metric.p50);
            (name ^ ".p90", s.Metric.p90);
            (name ^ ".p99", s.Metric.p99);
          ])
      r.Report.metrics
  in
  ("elapsed_s", r.Report.elapsed_s) :: entries

(* ------------------------------------------------------------------ *)
(* classification *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Histogram expansion suffixes; [base_key] strips them so
   "pool.run_s.p90" classifies like "pool.run_s". *)
let strip_suffix key =
  let suffixes = [ ".n"; ".min"; ".max"; ".mean"; ".p50"; ".p90"; ".p99" ] in
  match
    List.find_opt
      (fun suf ->
        String.length key > String.length suf
        && String.sub key (String.length key - String.length suf) (String.length suf)
           = suf)
      suffixes
  with
  | Some suf -> (String.sub key 0 (String.length key - String.length suf), suf)
  | None -> (key, "")

let classify ?(measured = false) key =
  let base, suffix = strip_suffix key in
  let ends_with_s =
    String.length base >= 2
    && String.sub base (String.length base - 2) 2 = "_s"
  in
  let timing_name =
    ends_with_s
    || contains ~sub:"per_sec" base
    || contains ~sub:"speedup" base
    || contains ~sub:"elapsed" base
  in
  (* A histogram's sample count is exact bookkeeping, not a
     measurement: "dwell.per_tw_s.n" must match across runs even
     though "dwell.per_tw_s.p90" may not — unless the histogram was
     declared measured, because its samples count scheduling events. *)
  let cls =
    if suffix = ".n" then if measured then Timing else Deterministic
    else if timing_name then Timing
    else Deterministic
  in
  let dir =
    if suffix = ".n" then Neutral
    else if contains ~sub:"per_sec" base || contains ~sub:"speedup" base then
      Higher_better
    else if contains ~sub:"hit" base then Higher_better
    else if
      ends_with_s || contains ~sub:"elapsed" base
      || contains ~sub:"dropped" base
      || contains ~sub:"miss" base
    then Lower_better
    else Neutral
  in
  (cls, dir)

(* ------------------------------------------------------------------ *)
(* comparison *)

let delta_pct ~old_v ~new_v =
  if old_v = 0. && new_v = 0. then 0.
  else if old_v = 0. then (if new_v > 0. then infinity else neg_infinity)
  else 100. *. (new_v -. old_v) /. Float.abs old_v

(* the histograms either report declares measured *)
let measured_histograms reports =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Report.t) ->
      List.iter
        (function
          | Metric.Histogram (name, s) when s.Metric.measured ->
            Hashtbl.replace tbl name ()
          | Metric.Counter _ | Metric.Gauge _ | Metric.Histogram _ -> ())
        r.Report.metrics)
    reports;
  tbl

let compare_reports ~old_report ~new_report =
  let olds = flatten old_report and news = flatten new_report in
  let measured = measured_histograms [ old_report; new_report ] in
  let new_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace new_tbl k v) news;
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace old_tbl k v) olds;
  let of_pair key old_v new_v =
    let cls, dir =
      classify ~measured:(Hashtbl.mem measured (fst (strip_suffix key))) key
    in
    let delta_pct =
      match (old_v, new_v) with
      | Some o, Some n -> delta_pct ~old_v:o ~new_v:n
      | _ -> nan
    in
    { key; cls; dir; old_v; new_v; delta_pct }
  in
  let matched_or_missing =
    List.map
      (fun (k, o) -> of_pair k (Some o) (Hashtbl.find_opt new_tbl k))
      olds
  in
  let added =
    List.filter_map
      (fun (k, n) ->
        if Hashtbl.mem old_tbl k then None else Some (of_pair k None (Some n)))
      news
  in
  List.sort (fun a b -> String.compare a.key b.key) (matched_or_missing @ added)

type status = Pass | Regression | Missing | Added

let status_of ?gate ?timing_gate c =
  let tol = match c.cls with Timing -> timing_gate | Deterministic -> gate in
  match (c.old_v, c.new_v, tol) with
  | Some _, None, Some _ -> Missing (* gated class: a vanished key fails *)
  | Some _, None, None -> Pass
  | None, Some _, _ -> Added
  | None, None, _ -> Pass
  | Some _, Some _, None -> Pass
  | Some _, Some _, Some tol -> (
    let fail =
      match c.dir with
      | Higher_better -> c.delta_pct < -.tol
      | Lower_better -> c.delta_pct > tol
      | Neutral -> Float.abs c.delta_pct > tol
    in
    if fail then Regression else Pass)

let regressions ?gate ?timing_gate changes =
  List.filter
    (fun c ->
      match status_of ?gate ?timing_gate c with
      | Regression | Missing -> true
      | Pass | Added -> false)
    changes

(* ------------------------------------------------------------------ *)
(* rendering *)

let value_string = function
  | None -> "-"
  | Some v ->
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.6g" v

let pp_change ppf c =
  let cls = match c.cls with Timing -> "timing" | Deterministic -> "det" in
  let dir =
    match c.dir with
    | Higher_better -> "higher-better"
    | Lower_better -> "lower-better"
    | Neutral -> "neutral"
  in
  let delta =
    if Float.is_nan c.delta_pct then "-"
    else if Float.is_integer c.delta_pct && Float.abs c.delta_pct < 1e6 then
      Printf.sprintf "%+.0f%%" c.delta_pct
    else Printf.sprintf "%+.2f%%" c.delta_pct
  in
  Format.fprintf ppf "%-44s %12s -> %-12s %10s  [%s, %s]" c.key
    (value_string c.old_v) (value_string c.new_v) delta cls dir
