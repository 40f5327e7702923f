type t = {
  mcache : Core.Mapping.cache;
  dcache : Core.Dwell.cache;
  case_apps : Core.App.t list Lazy.t;
  mutable requests : int;
  mutable incremental_skips : int;
  mutable engine_runs : int;
}

(* a case-study application, its dwell tables through [dcache] *)
let case_app dcache ?j_star (a : Casestudy.app) =
  Core.App.make ~cache:dcache ~name:a.Casestudy.name ~plant:a.Casestudy.plant
    ~gains:a.Casestudy.gains ~r:a.Casestudy.r
    ~j_star:(Option.value ~default:a.Casestudy.j_star j_star)
    ()

let create ?pcache () =
  let mcache =
    match pcache with
    | Some pc -> Core.Pcache.mapping_cache pc
    | None -> Core.Mapping.create_cache ()
  in
  let dcache =
    match pcache with
    | Some pc -> Core.Pcache.dwell_cache pc
    | None -> Core.Dwell.create_cache ()
  in
  let case_apps = lazy (List.map (case_app dcache) Casestudy.all) in
  {
    mcache;
    dcache;
    case_apps;
    requests = 0;
    incremental_skips = 0;
    engine_runs = 0;
  }

let requests t = t.requests
let incremental_skips t = t.incremental_skips
let engine_runs t = t.engine_runs

(* ------------------------------------------------------------------ *)
(* resolving protocol applications to scheduler specs *)

let case_spec t ~name ?j_star () =
  match Casestudy.find name with
  | exception Not_found ->
    Error
      (Printf.sprintf "unknown application %S (case study provides C1..C6)" name)
  | a -> (
    let j_star = Option.value ~default:a.Casestudy.j_star j_star in
    match case_app t.dcache ~j_star a with
    | app -> Ok (Core.App.spec app ~id:0)
    | exception Core.Dwell.Infeasible m ->
      Error (Printf.sprintf "%s at J*=%d: infeasible: %s" name j_star m)
    | exception Invalid_argument m ->
      Error (Printf.sprintf "%s at J*=%d: %s" name j_star m))

let resolve_app t = function
  | Protocol.Named name -> case_spec t ~name ()
  | Protocol.Override { name; j_star } -> case_spec t ~name ~j_star ()
  | Protocol.Inline { name; t_w_max; t_dw_min; t_dw_max; r } -> (
    match Sched.Appspec.make ~id:0 ~name ~t_w_max ~t_dw_min ~t_dw_max ~r with
    | s -> Ok s
    | exception Invalid_argument m ->
      Error (Printf.sprintf "inline application %S: %s" name m))

let resolve_group t apps =
  let rec go i acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | a :: rest -> (
      match resolve_app t a with
      | Error _ as e -> e
      | Ok s -> go (i + 1) (Sched.Appspec.with_id s i :: acc) rest)
  in
  go 0 [] apps

let resolve_groups t groups =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | g :: rest -> (
      match resolve_group t g with
      | Error _ as e -> e
      | Ok specs -> go (specs :: acc) rest)
  in
  go [] groups

(* ------------------------------------------------------------------ *)
(* request handlers *)

let emit_request ~kind ~groups ~engine ~mem ~disk =
  Obs.Event.emit "serve.request"
    [
      ("kind", Obs.Event.Str kind);
      ("groups", Obs.Event.Int groups);
      ("engine", Obs.Event.Int engine);
      ("mem", Obs.Event.Int mem);
      ("disk", Obs.Event.Int disk);
    ]

(* run [f] and count where its lookups in [cache] were answered: by the
   engine, the in-memory table or the store — three disjoint counters *)
let with_traffic cache f =
  let engine0 = Par.Vcache.misses cache
  and mem0 = Par.Vcache.hits cache
  and disk0 = Par.Vcache.disk_hits cache in
  let r = f () in
  ( r,
    Par.Vcache.misses cache - engine0,
    Par.Vcache.hits cache - mem0,
    Par.Vcache.disk_hits cache - disk0 )

let account t ~kind ~groups ~engine ~mem ~disk =
  t.engine_runs <- t.engine_runs + engine;
  t.incremental_skips <- t.incremental_skips + mem + disk;
  if mem + disk > 0 then Obs.Metric.count "serve.incremental_skips" (mem + disk);
  emit_request ~kind ~groups ~engine ~mem ~disk

let verdict_line : Core.Mapping.verdict -> string = function
  | `Safe -> "safe: no application can miss T*_w"
  (* a cached Unsafe carries no counterexample, so unlike the one-shot
     CLI the unsafe line is a pure function of the verdict — the same
     bytes whether the engine just ran or a cache answered *)
  | `Unsafe -> "unsafe: some application can miss T*_w"
  | `Undetermined reason -> "undetermined: " ^ reason

let handle_verify t ~id groups =
  match resolve_groups t groups with
  | Error m -> Protocol.error_response ~id m
  | Ok specs_list ->
    let fps = List.map Core.Mapping.fingerprint specs_list in
    (* dedup within the request: every distinct group is probed exactly
       once, so concurrent probes never race on one fingerprint and the
       provenance mix is deterministic at any jobs count *)
    let probed = Hashtbl.create 16 in
    let uniq =
      List.filter
        (fun (fp, _) ->
          if Hashtbl.mem probed fp then false
          else begin
            Hashtbl.add probed fp ();
            true
          end)
        (List.combine fps specs_list)
    in
    let pool = Par.Pool.default () in
    let futures =
      Par.Pool.submit_list pool
        (List.map
           (fun (_, specs) () -> Core.Mapping.probe ~cache:t.mcache specs)
           uniq)
    in
    let results = Par.Pool.await_list pool futures in
    let answers = Hashtbl.create 16 in
    List.iter2 (fun (fp, _) r -> Hashtbl.replace answers fp r) uniq results;
    let count p = List.length (List.filter (fun (_, src) -> src = p) results) in
    account t ~kind:"verify" ~groups:(List.length fps) ~engine:(count `Miss)
      ~mem:(count `Mem) ~disk:(count `Disk);
    let group_answers =
      List.map
        (fun fp ->
          let verdict, provenance = Hashtbl.find answers fp in
          { Protocol.fingerprint = Protocol.digest fp; verdict; provenance })
        fps
    in
    let output =
      String.concat "\n"
        (List.map (fun g -> verdict_line g.Protocol.verdict) group_answers)
    in
    Protocol.verify_response ~id ~groups:group_answers ~output

let strip_final_newline s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

let handle_map t ~id ~optimal =
  let apps = Lazy.force t.case_apps in
  let outcome, engine, mem, disk =
    with_traffic t.mcache (fun () ->
        if optimal then Core.Mapping.optimal ~cache:t.mcache apps
        else Core.Mapping.first_fit ~cache:t.mcache apps)
  in
  (* the mappers' analytic screen answers some groups before the cache,
     so these deltas undercount "groups asked" — they count exactly the
     cache traffic, which is what the incremental story is about *)
  account t ~kind:"map" ~groups:outcome.Core.Mapping.verifications ~engine
    ~mem ~disk;
  let output =
    strip_final_newline (Format.asprintf "%a" Core.Mapping.pp outcome)
  in
  Protocol.simple_response ~id ~kind:"map" ~output

let handle_dwell t ~id ~app ~j_star =
  match Casestudy.find app with
  | exception Not_found ->
    Protocol.error_response ~id
      (Printf.sprintf "unknown application %S (case study provides C1..C6)" app)
  | a -> (
    let j_star = Option.value ~default:a.Casestudy.j_star j_star in
    match with_traffic t.dcache (fun () -> case_app t.dcache ~j_star a) with
    | exception Core.Dwell.Infeasible m ->
      Protocol.error_response ~id
        (Printf.sprintf "%s at J*=%d: infeasible: %s" app j_star m)
    | exception Invalid_argument m ->
      Protocol.error_response ~id (Printf.sprintf "%s at J*=%d: %s" app j_star m)
    | capp, engine, mem, disk ->
      account t ~kind:"dwell" ~groups:1 ~engine ~mem ~disk;
      (* the same printer as `cpsdim tables`, so the two outputs diff
         clean in CI *)
      Protocol.simple_response ~id ~kind:"dwell"
        ~output:(Format.asprintf "%a" Core.App.pp_tables capp))

(* ------------------------------------------------------------------ *)

let dispatch t = function
  | Protocol.Verify { id; groups } -> (handle_verify t ~id groups, `Continue)
  | Protocol.Map { id; optimal } -> (handle_map t ~id ~optimal, `Continue)
  | Protocol.Dwell { id; app; j_star } ->
    (handle_dwell t ~id ~app ~j_star, `Continue)
  | Protocol.Ping { id } ->
    account t ~kind:"ping" ~groups:0 ~engine:0 ~mem:0 ~disk:0;
    (Protocol.simple_response ~id ~kind:"ping" ~output:"pong", `Continue)
  | Protocol.Shutdown { id } ->
    account t ~kind:"shutdown" ~groups:0 ~engine:0 ~mem:0 ~disk:0;
    (Protocol.simple_response ~id ~kind:"shutdown" ~output:"bye", `Stop)

let handle_line t line =
  t.requests <- t.requests + 1;
  Obs.Metric.count "serve.requests" 1;
  Obs.Span.with_ "serve.request" @@ fun () ->
  match Protocol.request_of_line line with
  | Error (id, m) ->
    emit_request ~kind:"error" ~groups:0 ~engine:0 ~mem:0 ~disk:0;
    (Protocol.error_response ~id m, `Continue)
  | Ok req -> (
    let id =
      match req with
      | Protocol.Verify { id; _ }
      | Protocol.Map { id; _ }
      | Protocol.Dwell { id; _ }
      | Protocol.Ping { id }
      | Protocol.Shutdown { id } -> id
    in
    (* last line of defence: a request must never take the service
       down, whatever a handler raises *)
    try dispatch t req
    with e ->
      emit_request ~kind:"error" ~groups:0 ~engine:0 ~mem:0 ~disk:0;
      (Protocol.error_response ~id (Printexc.to_string e), `Continue))
