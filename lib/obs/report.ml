type json = Jsonx.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Assoc of (string * json) list

let json_to_string = Jsonx.to_string
let json_of_string = Jsonx.of_string

(* ------------------------------------------------------------------ *)
(* reports *)

type t = {
  command : string;
  timestamp : float;
  elapsed_s : float;
  metrics : Metric.entry list;
  spans : Span.record list;
}

let sort_metrics =
  List.sort (fun a b ->
      let name = function
        | Metric.Counter (n, _) | Metric.Gauge (n, _) | Metric.Histogram (n, _)
          -> n
      in
      String.compare (name a) (name b))

let collect ~command () =
  let spans = Span.drain () in
  let t0 =
    List.fold_left
      (fun acc (s : Span.record) -> Float.min acc s.Span.start_s)
      infinity spans
  in
  let t1 =
    List.fold_left
      (fun acc (s : Span.record) -> Float.max acc (s.Span.start_s +. s.Span.dur_s))
      neg_infinity spans
  in
  let spans =
    List.map (fun (s : Span.record) -> { s with Span.start_s = s.Span.start_s -. t0 }) spans
  in
  (* Surface buffer losses as first-class counters so a truncated
     report is distinguishable from a quiet run. *)
  let losses =
    List.concat
      [
        (let d = Span.dropped () in
         if d > 0 then [ Metric.Counter ("obs.spans_dropped", d) ] else []);
        (let d = Event.dropped () in
         if d > 0 then [ Metric.Counter ("obs.events_dropped", d) ] else []);
      ]
  in
  {
    command;
    timestamp = Clock.wall ();
    elapsed_s = (if spans = [] then 0. else t1 -. t0);
    metrics = sort_metrics (losses @ Metric.snapshot ());
    spans;
  }

let schema_id = "cpsdim.obs/2"
let schema_id_v1 = "cpsdim.obs/1"

let to_json t =
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) entry ->
        match entry with
        | Metric.Counter (name, v) -> ((name, Int v) :: cs, gs, hs)
        | Metric.Gauge (name, v) -> (cs, (name, Float v) :: gs, hs)
        | Metric.Histogram (name, s) ->
          ( cs,
            gs,
            ( name,
              Assoc
                ([
                   ("n", Int s.Metric.n);
                   ("min", Float s.Metric.min);
                   ("max", Float s.Metric.max);
                   ("mean", Float s.Metric.mean);
                   ("p50", Float s.Metric.p50);
                   ("p90", Float s.Metric.p90);
                   ("p99", Float s.Metric.p99);
                 ]
                @ if s.Metric.measured then [ ("measured", Bool true) ] else [])
            )
            :: hs ))
      ([], [], []) t.metrics
  in
  Assoc
    [
      ("schema", String schema_id);
      ("command", String t.command);
      ("timestamp", Float t.timestamp);
      ("elapsed_s", Float t.elapsed_s);
      ("counters", Assoc (List.rev counters));
      ("gauges", Assoc (List.rev gauges));
      ("histograms", Assoc (List.rev histograms));
      ( "spans",
        List
          (List.map
             (fun (s : Span.record) ->
               Assoc
                 [
                   ("id", Int s.Span.id);
                   ("name", String s.Span.name);
                   ( "parent",
                     match s.Span.parent with None -> Null | Some p -> Int p );
                   ("start_s", Float s.Span.start_s);
                   ("dur_s", Float s.Span.dur_s);
                   ("gc_minor_w", Float s.Span.gc_minor_w);
                   ("gc_major_w", Float s.Span.gc_major_w);
                   ("gc_compact", Int s.Span.gc_compact);
                 ])
             t.spans) );
    ]

let ( let* ) = Result.bind

let field name = function
  | Assoc kvs -> (
    match List.assoc_opt name kvs with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name))
  | _ -> Error "expected an object"

let as_string = function String s -> Ok s | _ -> Error "expected a string"

let as_float = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | _ -> Error "expected a number"

let as_int = function Int i -> Ok i | _ -> Error "expected an integer"
let as_assoc = function Assoc kvs -> Ok kvs | _ -> Error "expected an object"
let as_list = function List l -> Ok l | _ -> Error "expected an array"

(* v1 spans carry no GC fields; default them to zero on read. *)
let float_field_default name ~default s =
  match field name s with
  | Ok v -> as_float v
  | Error _ -> Ok default

let int_field_default name ~default s =
  match field name s with
  | Ok v -> as_int v
  | Error _ -> Ok default

let map_result f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) l
  |> Result.map List.rev

let of_json j =
  let* schema = field "schema" j in
  let* schema = as_string schema in
  if schema <> schema_id && schema <> schema_id_v1 then
    Error ("unknown schema " ^ schema)
  else
    let* command = Result.bind (field "command" j) as_string in
    let* timestamp = Result.bind (field "timestamp" j) as_float in
    let* elapsed_s = Result.bind (field "elapsed_s" j) as_float in
    let* counters = Result.bind (field "counters" j) as_assoc in
    let* counters =
      map_result
        (fun (name, v) ->
          let* v = as_int v in
          Ok (Metric.Counter (name, v)))
        counters
    in
    let* gauges = Result.bind (field "gauges" j) as_assoc in
    let* gauges =
      map_result
        (fun (name, v) ->
          let* v = as_float v in
          Ok (Metric.Gauge (name, v)))
        gauges
    in
    let* histograms = Result.bind (field "histograms" j) as_assoc in
    let* histograms =
      map_result
        (fun (name, v) ->
          let* n = Result.bind (field "n" v) as_int in
          let* min = Result.bind (field "min" v) as_float in
          let* max = Result.bind (field "max" v) as_float in
          let* mean = Result.bind (field "mean" v) as_float in
          let* p50 = Result.bind (field "p50" v) as_float in
          let* p90 = Result.bind (field "p90" v) as_float in
          let* p99 = Result.bind (field "p99" v) as_float in
          let measured =
            match field "measured" v with Ok (Bool b) -> b | _ -> false
          in
          Ok
            (Metric.Histogram
               (name, { Metric.n; min; max; mean; p50; p90; p99; measured })))
        histograms
    in
    let* spans = Result.bind (field "spans" j) as_list in
    let* spans =
      map_result
        (fun s ->
          let* id = Result.bind (field "id" s) as_int in
          let* name = Result.bind (field "name" s) as_string in
          let* parent =
            match field "parent" s with
            | Ok Null -> Ok None
            | Ok v -> Result.map Option.some (as_int v)
            | Error _ as e -> e
          in
          let* start_s = Result.bind (field "start_s" s) as_float in
          let* dur_s = Result.bind (field "dur_s" s) as_float in
          let* gc_minor_w = float_field_default "gc_minor_w" ~default:0. s in
          let* gc_major_w = float_field_default "gc_major_w" ~default:0. s in
          let* gc_compact = int_field_default "gc_compact" ~default:0 s in
          Ok
            {
              Span.id;
              name;
              parent;
              start_s;
              dur_s;
              gc_minor_w;
              gc_major_w;
              gc_compact;
            })
        spans
    in
    (* restore the name order [Metric.snapshot] produces *)
    let metrics = sort_metrics (counters @ gauges @ histograms) in
    Ok { command; timestamp; elapsed_s; metrics; spans }

(* ------------------------------------------------------------------ *)
(* human summary *)

let pp ppf t =
  Format.fprintf ppf "@[<v>== %s == (%.2f s)@," t.command t.elapsed_s;
  if t.spans <> [] then begin
    Format.fprintf ppf "spans:@,";
    (* pre-order walk of the parent forest, in start order *)
    let children id =
      List.filter (fun (s : Span.record) -> s.Span.parent = Some id) t.spans
    in
    let roots =
      List.filter (fun (s : Span.record) -> s.Span.parent = None) t.spans
    in
    let by_start =
      List.sort (fun (a : Span.record) b -> compare a.Span.start_s b.Span.start_s)
    in
    let rec walk depth (s : Span.record) =
      Format.fprintf ppf "  %s%-*s %8.3f s  (minor %.2e w, major %.2e w%s)@,"
        (String.make (2 * depth) ' ')
        (Int.max 1 (30 - (2 * depth)))
        s.Span.name s.Span.dur_s s.Span.gc_minor_w s.Span.gc_major_w
        (if s.Span.gc_compact > 0 then
           Printf.sprintf ", %d compactions" s.Span.gc_compact
         else "");
      List.iter (walk (depth + 1)) (by_start (children s.Span.id))
    in
    List.iter (walk 0) (by_start roots)
  end;
  let counters =
    List.filter_map (function Metric.Counter (n, v) -> Some (n, v) | _ -> None) t.metrics
  in
  let gauges =
    List.filter_map (function Metric.Gauge (n, v) -> Some (n, v) | _ -> None) t.metrics
  in
  let histograms =
    List.filter_map (function Metric.Histogram (n, s) -> Some (n, s) | _ -> None) t.metrics
  in
  if counters <> [] then begin
    Format.fprintf ppf "counters:@,";
    List.iter (fun (n, v) -> Format.fprintf ppf "  %-34s %d@," n v) counters
  end;
  if gauges <> [] then begin
    Format.fprintf ppf "gauges:@,";
    List.iter (fun (n, v) -> Format.fprintf ppf "  %-34s %.3f@," n v) gauges
  end;
  if histograms <> [] then begin
    Format.fprintf ppf "histograms:@,";
    List.iter
      (fun (n, (s : Metric.summary)) ->
        Format.fprintf ppf
          "  %-34s n=%d min=%.4f mean=%.4f p50=%.4f p90=%.4f p99=%.4f max=%.4f@," n
          s.Metric.n s.Metric.min s.Metric.mean s.Metric.p50 s.Metric.p90
          s.Metric.p99 s.Metric.max)
      histograms
  end;
  Format.fprintf ppf "@]"
