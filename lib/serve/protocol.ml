type group_app =
  | Named of string
  | Override of { name : string; j_star : int }
  | Inline of {
      name : string;
      t_w_max : int;
      t_dw_min : int array;
      t_dw_max : int array;
      r : int;
    }

type request =
  | Verify of { id : Obs.Jsonx.t; groups : group_app list list }
  | Map of { id : Obs.Jsonx.t; optimal : bool }
  | Dwell of { id : Obs.Jsonx.t; app : string; j_star : int option }
  | Ping of { id : Obs.Jsonx.t }
  | Shutdown of { id : Obs.Jsonx.t }

let ( let* ) = Result.bind
let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let as_int ~what = function
  | Obs.Jsonx.Int i -> Ok i
  | _ -> err "%s must be an integer" what

let as_string ~what = function
  | Obs.Jsonx.String s -> Ok s
  | _ -> err "%s must be a string" what

let as_int_array ~what = function
  | Obs.Jsonx.List items ->
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | Obs.Jsonx.Int i :: rest -> go (i :: acc) rest
      | _ -> err "%s must be an array of integers" what
    in
    go [] items
  | _ -> err "%s must be an array of integers" what

(* inline specs are told apart from budget overrides by the presence of
   timing fields: an object with "t_w_max" must spell the whole spec
   out, an object without is a case-study reference *)
let app_of_json = function
  | Obs.Jsonx.String name -> Ok (Named name)
  | Obs.Jsonx.Assoc kvs -> (
    let* name =
      match List.assoc_opt "name" kvs with
      | Some j -> as_string ~what:"application \"name\"" j
      | None -> err "an application object wants a \"name\""
    in
    if List.mem_assoc "t_w_max" kvs then
      let field key conv =
        match List.assoc_opt key kvs with
        | Some j -> conv ~what:(Printf.sprintf "%S of inline %s" key name) j
        | None -> err "inline application %s wants %S" name key
      in
      let* t_w_max = field "t_w_max" as_int in
      let* t_dw_min = field "t_dw_min" as_int_array in
      let* t_dw_max = field "t_dw_max" as_int_array in
      let* r = field "r" as_int in
      Ok (Inline { name; t_w_max; t_dw_min; t_dw_max; r })
    else
      match List.assoc_opt "j_star" kvs with
      | None -> Ok (Named name)
      | Some j ->
        let* j_star = as_int ~what:(Printf.sprintf "\"j_star\" of %s" name) j in
        Ok (Override { name; j_star }))
  | _ -> err "an application is a name string or an object"

let group_of_json = function
  | Obs.Jsonx.List [] -> err "a group must hold at least one application"
  | Obs.Jsonx.List apps ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | j :: rest ->
        let* a = app_of_json j in
        go (a :: acc) rest
    in
    go [] apps
  | _ -> err "a group is an array of applications"

let groups_of_json = function
  | Obs.Jsonx.List [] -> err "\"groups\" must hold at least one group"
  | Obs.Jsonx.List gs ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | j :: rest ->
        let* g = group_of_json j in
        go (g :: acc) rest
    in
    go [] gs
  | _ -> err "\"groups\" must be an array of groups"

let request_of_line line =
  match Obs.Jsonx.of_string line with
  | Error m -> Error (Obs.Jsonx.Null, "bad JSON: " ^ m)
  | Ok (Obs.Jsonx.Assoc kvs) -> (
    let id = Option.value ~default:Obs.Jsonx.Null (List.assoc_opt "id" kvs) in
    let tagged r = Result.map_error (fun m -> (id, m)) r in
    match List.assoc_opt "kind" kvs with
    | None -> Error (id, "a request wants a \"kind\"")
    | Some (Obs.Jsonx.String "verify") ->
      tagged
        (match List.assoc_opt "groups" kvs with
         | None -> err "verify wants \"groups\""
         | Some j ->
           let* groups = groups_of_json j in
           Ok (Verify { id; groups }))
    | Some (Obs.Jsonx.String "map") ->
      tagged
        (match List.assoc_opt "optimal" kvs with
         | None -> Ok (Map { id; optimal = false })
         | Some (Obs.Jsonx.Bool b) -> Ok (Map { id; optimal = b })
         | Some _ -> err "\"optimal\" must be a boolean")
    | Some (Obs.Jsonx.String "dwell") ->
      tagged
        (let* app =
           match List.assoc_opt "app" kvs with
           | None -> err "dwell wants an \"app\" name"
           | Some j -> as_string ~what:"\"app\"" j
         in
         let* j_star =
           match List.assoc_opt "j_star" kvs with
           | None -> Ok None
           | Some j -> Result.map Option.some (as_int ~what:"\"j_star\"" j)
         in
         Ok (Dwell { id; app; j_star }))
    | Some (Obs.Jsonx.String "ping") -> Ok (Ping { id })
    | Some (Obs.Jsonx.String "shutdown") -> Ok (Shutdown { id })
    | Some (Obs.Jsonx.String k) ->
      Error
        ( id,
          Printf.sprintf
            "unknown request kind %S (have verify, map, dwell, ping, shutdown)"
            k )
    | Some _ -> Error (id, "\"kind\" must be a string"))
  | Ok _ -> Error (Obs.Jsonx.Null, "a request is one JSON object per line")

type group_answer = {
  fingerprint : string;
  verdict : Core.Mapping.verdict;
  provenance : [ `Screen | `Mem | `Disk | `Miss ];
}

let digest = Store.fnv64

let verdict_name : Core.Mapping.verdict -> string = function
  | `Safe -> "safe"
  | `Unsafe -> "unsafe"
  | `Undetermined _ -> "undetermined"

let provenance_name = function
  | `Screen -> "screen"
  | `Mem -> "mem"
  | `Disk -> "disk"
  | `Miss -> "engine"

(* Jsonx.to_string keeps Assoc order, so putting "output" last in the
   list is all the "last field on the wire" guarantee needs *)
let response kvs = Obs.Jsonx.to_string (Obs.Jsonx.Assoc kvs)

let verify_response ~id ~groups ~output =
  response
    [
      ("id", id);
      ("ok", Obs.Jsonx.Bool true);
      ("kind", Obs.Jsonx.String "verify");
      ( "groups",
        Obs.Jsonx.List
          (List.map
             (fun g ->
               Obs.Jsonx.Assoc
                 [
                   ("fingerprint", Obs.Jsonx.String g.fingerprint);
                   ("verdict", Obs.Jsonx.String (verdict_name g.verdict));
                   ("provenance", Obs.Jsonx.String (provenance_name g.provenance));
                 ])
             groups) );
      ("output", Obs.Jsonx.String output);
    ]

let simple_response ~id ~kind ~output =
  response
    [
      ("id", id);
      ("ok", Obs.Jsonx.Bool true);
      ("kind", Obs.Jsonx.String kind);
      ("output", Obs.Jsonx.String output);
    ]

let error_response ~id msg =
  response [ ("id", id); ("ok", Obs.Jsonx.Bool false); ("error", Obs.Jsonx.String msg) ]
