(* serve-churn: a `cpsdim serve --jobs 2 --cache PATH` child driven
   over one stdio connection by a closed loop with one caller.  The
   daemon answers requests one at a time, in order, so the closed-loop
   rate is its sustainable rate.

   Set-up: generate the seeded log, answer every request once (the
   cold fill runs the engine and appends to the store), shut the child
   down and respawn it on the same store, which loads the index.

   Each timed op is a log verify request with one application of one
   group changed under a fresh name: exactly that group runs the
   engine, and the other groups answer from memory or the store. *)

let jobs = 2

(* --- children ------------------------------------------------------------ *)

type child = { pid : int; ic : in_channel; oc : out_channel; err : string }

let live = ref []

let reap pid =
  live := List.filter (( <> ) pid) !live;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* every child still running when the benchmark exits, normally or on
   an exception, is killed and waited for *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap pid))
        !live)

let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (Util.starts_with ~prefix:"CPSDIM_JOBS=" kv
           || Util.starts_with ~prefix:"CPSDIM_CACHE=" kv))
  |> Array.of_list

let spawn ~exe ~store ~err =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_fd =
    Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600
  in
  let argv = [| exe; "serve"; "--jobs"; string_of_int jobs; "--cache"; store |] in
  let pid = Unix.create_process_env exe argv (child_env ()) in_r out_w err_fd in
  live := pid :: !live;
  List.iter Unix.close [ in_r; out_w; err_fd ];
  { pid; ic = Unix.in_channel_of_descr out_r; oc = Unix.out_channel_of_descr in_w; err }

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  match In_channel.input_line c.ic with
  | Some l -> l
  | None -> failwith "serve child closed its output"

(* a leftover process holding the store's single-writer lock would turn
   the child into a memory-only cache; refuse to measure that *)
let check_writer c =
  if Util.find_from (Util.read_file c.err) "read-only" 0 >= 0 then
    failwith "serve child runs read-only: another process holds the store's writer lock"

let is_ok resp = Util.find_from resp "\"ok\":true" 0 > 0

let shutdown c =
  let resp = request c "{\"kind\":\"shutdown\"}" in
  close_out c.oc;
  close_in c.ic;
  let clean = reap c.pid in
  check_writer c;
  if not (clean && is_ok resp) then failwith "serve child did not shut down cleanly"

(* --- response checks ----------------------------------------------------- *)

type provs = { mutable engine : int; mutable mem : int; mutable disk : int; mutable other : int }

let new_provs () = { engine = 0; mem = 0; disk = 0; other = 0 }

let count_provenance p = function
  | "engine" -> p.engine <- p.engine + 1
  | "mem" -> p.mem <- p.mem + 1
  | "disk" -> p.disk <- p.disk + 1
  | _ -> p.other <- p.other + 1

let provenances resp = Util.values_after resp "\"provenance\":\""
let fingerprints resp = Util.values_after resp "\"fingerprint\":\""
let verdicts resp = Util.values_after resp "\"verdict\":\""

(* the "output" field (always last) split at its escaped newlines *)
let output_lines resp =
  let pat = "\"output\":\"" in
  match Util.find_from resp pat 0 with
  | -1 -> []
  | i ->
    let start = i + String.length pat in
    let s = String.sub resp start (String.length resp - start - 2) in
    let rec split from acc =
      match Util.find_from s "\\n" from with
      | -1 -> List.rev (String.sub s from (String.length s - from) :: acc)
      | j -> split (j + 2) (String.sub s from (j - from) :: acc)
    in
    split 0 []

let map_ok resp =
  let slots =
    List.mapi
      (fun i names -> Printf.sprintf "S%d: {%s}" (i + 1) (String.concat ", " names))
      Casestudy.paper_slot_partition
  in
  is_ok resp
  &&
  match output_lines resp with
  | head :: rest -> Util.starts_with ~prefix:"2 slot(s)" head && rest = slots
  | [] -> false

let parse_ints s = Array.of_list (List.map int_of_string (String.split_on_char ',' s))

let dwell_ok app resp =
  is_ok resp
  &&
  match output_lines resp with
  | [ l0; l1; l2 ] -> (
    try
      let name, jt, je, t_w_max =
        Scanf.sscanf l0 "%s@: r=%d J*=%d | J_T=%d J_E=%d T*_w=%d%!"
          (fun name _ _ jt je tw -> (name, jt, je, tw))
      in
      let t_dw_min = Scanf.sscanf l1 "  T-_dw=[%s@]%!" parse_ints in
      let t_dw_max = Scanf.sscanf l2 "  T+_dw=[%s@]%!" parse_ints in
      name = app && Cold.table1_ok ~name ~jt ~je ~t_w_max ~t_dw_min ~t_dw_max
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> false)
  | _ -> false

let verdict_ok v = v = "safe" || v = "unsafe"

(* --- set-up ----------------------------------------------------------------- *)

type setup = {
  log : Gen.log;
  store : string;
  fps : string array array;  (** per verify request, the group fingerprints *)
  verdicts : string array array;  (** per verify request, the group verdicts *)
  group_verdict : string array;  (** per distinct group, in log order *)
  fill_ok : bool;
}

let fill ~exe ~tmp ~seed =
  let log = Gen.generate ~seed in
  let store = Filename.concat tmp "verdicts.store" in
  let c = spawn ~exe ~store ~err:(Filename.concat tmp "fill.err") in
  let n = Array.length log.Gen.lines in
  let fps = Array.make n [||] and verdicts_of = Array.make n [||] in
  let group_verdict = ref [] and ok = ref true in
  Array.iteri
    (fun i line ->
      let resp = request c line in
      if i = 0 then check_writer c;
      match log.Gen.requests.(i) with
      | Gen.Verify groups ->
        let provs = provenances resp in
        let v = Array.of_list (verdicts resp) in
        fps.(i) <- Array.of_list (fingerprints resp);
        verdicts_of.(i) <- v;
        Array.iter (fun v -> group_verdict := v :: !group_verdict) v;
        let k = List.length groups in
        if not (is_ok resp && List.length provs = k
                && List.for_all (String.equal "engine") provs
                && Array.length v = k && Array.for_all verdict_ok v)
        then ok := false
      | Gen.Map -> if not (map_ok resp) then ok := false
      | Gen.Dwell app -> if not (dwell_ok app resp) then ok := false)
    log.Gen.lines;
  shutdown c;
  {
    log;
    store;
    fps;
    verdicts = verdicts_of;
    group_verdict = Array.of_list (List.rev !group_verdict);
    fill_ok = !ok;
  }

(* --- ops -------------------------------------------------------------------- *)

type op = {
  idx : int;  (** the log request it changes *)
  g : int;  (** the changed group's position in the request *)
  group : Gen.app list;  (** the changed group *)
  line : string;
}

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* seeded passes over the log's verify requests, each in a fresh random
   order, with one application of one group changed *)
let op_stream ~seed (log : Gen.log) =
  let st = Random.State.make [| 0x0b5; seed |] in
  let order =
    Array.to_list log.Gen.requests
    |> List.mapi (fun i r -> (i, r))
    |> List.filter_map (function i, Gen.Verify groups -> Some (i, groups) | _ -> None)
    |> Array.of_list
  in
  let pos = ref max_int and n = ref 0 in
  fun () ->
    if !pos >= Array.length order then begin
      shuffle st order;
      pos := 0
    end;
    let idx, groups = order.(!pos) in
    incr pos;
    let g = Random.State.int st (List.length groups) in
    let a = Random.State.int st (List.length (List.nth groups g)) in
    let name = Printf.sprintf "M%d" !n in
    incr n;
    let group =
      List.mapi (fun i app -> if i = a then Gen.mutate st app ~name else app) (List.nth groups g)
    in
    let groups = List.mapi (fun i gr -> if i = g then group else gr) groups in
    { idx; g; group; line = Gen.verify_line ~id:idx groups }

(* checks one timed answer, tallying provenance into [p]: the changed
   group alone comes from the engine, under a new fingerprint; the
   others keep their set-up fingerprints and verdicts *)
let op_ok s p o resp =
  let provs = Array.of_list (provenances resp) in
  let fps = Array.of_list (fingerprints resp) in
  let verdicts = Array.of_list (verdicts resp) in
  let lines = Array.of_list (output_lines resp) in
  let want_fps = s.fps.(o.idx) and want_verdicts = s.verdicts.(o.idx) in
  let k = Array.length want_fps in
  Array.iter (count_provenance p) provs;
  is_ok resp
  && Array.length provs = k
  && Array.length fps = k
  && Array.length verdicts = k
  && Array.length lines = k
  && List.for_all
       (fun i ->
         Util.starts_with ~prefix:(verdicts.(i) ^ ":") lines.(i)
         &&
         if i = o.g then
           provs.(i) = "engine" && fps.(i) <> want_fps.(i) && verdict_ok verdicts.(i)
         else
           (provs.(i) = "mem" || provs.(i) = "disk")
           && fps.(i) = want_fps.(i)
           && verdicts.(i) = want_verdicts.(i))
       (List.init k Fun.id)

(* the verdict of an engine-answered group, re-derived by the zone
   engine, which shares no search code with the discrete one *)
let reverify (group, verdict) =
  match ((Core.Ta_model.verify (Gen.specs group)).Core.Ta_model.outcome, verdict) with
  | `Safe, "safe" | `Unsafe, "unsafe" -> true
  | _ -> false

let sample_size = 12

(* --- the generated mix ------------------------------------------------------ *)

let print_mix s p =
  let log = s.log in
  let groups = log.Gen.groups in
  let n = Array.length groups in
  let size k = Array.fold_left (fun acc g -> if List.length g = k then acc + 1 else acc) 0 groups in
  let kinds f = Array.fold_left (fun acc r -> if f r then acc + 1 else acc) 0 log.Gen.requests in
  let safe = Array.fold_left (fun acc v -> if v = "safe" then acc + 1 else acc) 0 s.group_verdict in
  let screened =
    Array.fold_left
      (fun acc g ->
        if Sched.Prefilter.decide (Gen.specs g) = Sched.Prefilter.Inconclusive then acc
        else acc + 1)
      0 groups
  in
  let answers = float_of_int (p.mem + p.disk + p.engine + p.other) in
  let share x = Util.ratio (float_of_int x) answers in
  Printf.printf
    "mix: %d inline apps, %d distinct groups (sizes 2:%d 3:%d 4:%d); log of %d requests \
     (verify %d, map %d, dwell %d); safe %d/%d (%.3f), unsafe %d/%d; provenance of \
     timed group answers mem %.4f disk %.4f engine %.4f; screen-settled share %.3f\n"
    log.Gen.population n (size 2) (size 3) (size 4) (Array.length log.Gen.requests)
    (kinds (function Gen.Verify _ -> true | _ -> false))
    (kinds (function Gen.Map -> true | _ -> false))
    (kinds (function Gen.Dwell _ -> true | _ -> false))
    safe n
    (Util.ratio (float_of_int safe) (float_of_int n))
    (n - safe) n (share p.mem) (share p.disk) (share p.engine)
    (Util.ratio (float_of_int screened) (float_of_int n))

(* --- the workload ------------------------------------------------------------ *)

let respawn ~exe ~tmp s =
  let c = spawn ~exe ~store:s.store ~err:(Filename.concat tmp "serve.err") in
  (* the index is loaded before the first answer, so the ping keeps
     the load inside the set-up *)
  let pong = request c "{\"kind\":\"ping\"}" in
  check_writer c;
  if not (is_ok pong) then failwith "serve child did not answer ping";
  c

(* the child's peak_rss_mb is read once this many timed ops are done:
   every changed group stays in the child's caches, so a reading at the
   end of the run would grow with throughput *)
let rss_ops = 10_000

(* the closed loop's state across [drive] calls *)
type driver = {
  next : unit -> op;
  st : Random.State.t;
  provs : provs;
  mutable latencies : float list;  (** seconds *)
  mutable batch_rates : float list;  (** per batch, ops per second *)
  mutable batch_p99s : float list;  (** per batch, seconds *)
  mutable ops : int;
  mutable failed : int;
  mutable wall_s : float;  (** time inside the timed loops *)
  sample : (Gen.app list * string) option array;  (** engine-answered groups *)
  mutable seen : int;
  mutable rss_mb : float option;  (** the child's VmHWM after [rss_ops] ops *)
}

let driver ~seed s =
  {
    next = op_stream ~seed s.log;
    st = Random.State.make [| 0x5a; seed |];
    provs = new_provs ();
    latencies = [];
    batch_rates = [];
    batch_p99s = [];
    ops = 0;
    failed = 0;
    wall_s = 0.;
    sample = Array.make sample_size None;
    seen = 0;
    rss_mb = None;
  }

(* the untraced run sends ops in batches of this many.  ops_per_s and
   op_p99_ms are medians over batches: a host storm over part of a run
   then moves them only if it covers half the batches.  A batch's p99
   has ten answers beyond it. *)
let batch = 1000

(* sends [n] ops to the child and returns each with its answer.  The ops
   are generated before the timed loop and checked after it, so the
   loop holds only the round trips. *)
let drive d s c n =
  let ops = Array.init n (fun _ -> d.next ()) in
  let resps = Array.make n "" and stamps = Array.make (n + 1) 0. in
  stamps.(0) <- Util.now ();
  for i = 0 to n - 1 do
    resps.(i) <- request c ops.(i).line;
    stamps.(i + 1) <- Util.now ()
  done;
  let wall = stamps.(n) -. stamps.(0) in
  d.wall_s <- d.wall_s +. wall;
  let lat = List.init n (fun i -> stamps.(i + 1) -. stamps.(i)) in
  d.latencies <- List.rev_append lat d.latencies;
  d.batch_rates <- (float_of_int n /. wall) :: d.batch_rates;
  d.batch_p99s <- Util.percentile lat 99. :: d.batch_p99s;
  Array.iteri
    (fun i o ->
      if not (op_ok s d.provs o resps.(i)) then d.failed <- d.failed + 1;
      (* reservoir sample of the engine-answered groups *)
      let slot = if d.seen < sample_size then d.seen else Random.State.int d.st (d.seen + 1) in
      if slot < sample_size then
        d.sample.(slot) <- Some (o.group, Option.value ~default:"" (List.nth_opt (verdicts resps.(i)) o.g));
      d.seen <- d.seen + 1)
    ops;
  d.ops <- d.ops + n;
  if d.rss_mb = None && d.ops >= rss_ops then
    d.rss_mb <- Some (Util.peak_rss_mb (string_of_int c.pid));
  Array.map2 (fun o r -> (o, r)) ops resps

(* re-verification outside the timed region: the number of sampled
   groups the zone engine refutes *)
let refuted d =
  Array.fold_left
    (fun acc item ->
      match item with Some item when not (reverify item) -> acc + 1 | _ -> acc)
    0 d.sample

let run ~exe ~tmp ~seed ~seconds =
  let t_start = Util.now () in
  let s = fill ~exe ~tmp ~seed in
  let c = respawn ~exe ~tmp s in
  let setup_s = Util.now () -. t_start in
  let pid = string_of_int c.pid in
  let cpu0 = Util.cpu_s pid in
  let d = driver ~seed s in
  while d.wall_s < seconds do
    ignore (drive d s c batch)
  done;
  let cpu = Util.cpu_s pid -. cpu0 in
  let rss = Option.value d.rss_mb ~default:(Util.peak_rss_mb pid) in
  shutdown c;
  let refuted = refuted d in
  print_mix s d.provs;
  let n = float_of_int d.ops in
  let failed = Int.min d.ops (d.failed + refuted) in
  let lat = List.map (fun x -> x *. 1000.) d.latencies in
  {
    Layers.correct = s.fill_ok && failed = 0 && refuted = 0;
    attempted = d.ops;
    failed;
    metrics =
      [
        Util.m "setup_s" "s" setup_s;
        Util.m "ops_per_s" "1/s" (Util.median d.batch_rates);
        Util.m "op_p50_ms" "ms" (Util.median lat);
        Util.m "op_p99_ms" "ms" (Util.median d.batch_p99s *. 1000.);
        Util.m "cpu_ms_per_op" "ms" (cpu *. 1000. /. n);
        Util.m "peak_rss_mb" "MB" rss;
        Util.m "ok_frac" "ratio" (float_of_int (d.ops - failed) /. n);
      ];
  }

(* --- the traced run ---------------------------------------------------------

   The run alternates blocks: the child answers [trace_block] ops,
   recording each round trip and answer, then the same ops are
   replayed in-process on copies of the store taken before the child
   touched it: once through Serve.Service.handle_line (untraced), once
   through a replica built from the layers' public functions with a
   span around each call.  Both must reproduce the child's answers byte
   for byte.  Short blocks keep host drift out of the differences
   between the child and the in-process replays. *)

let verdict_line : Core.Mapping.verdict -> string = function
  | `Safe -> "safe: no application can miss T*_w"
  | `Unsafe -> "unsafe: some application can miss T*_w"
  | `Undetermined reason -> "undetermined: " ^ reason

let spec_of_protocol = function
  | Serve.Protocol.Inline { name; t_w_max; t_dw_min; t_dw_max; r } ->
    Sched.Appspec.make ~id:0 ~name ~t_w_max ~t_dw_min ~t_dw_max ~r
  | Serve.Protocol.Named _ | Serve.Protocol.Override _ ->
    failwith "the serve logs hold inline applications only"

type tally = {
  mutable tasks : int;
  mutable queue_wait_s : float;
  mutable task_s : float;
  mutable mem_n : int;
  mutable mem_s : float;
  mutable disk_n : int;
  mutable disk_s : float;
  mutable miss_n : int;
}

let span_of_source = function
  | `Mem -> "vcache"
  | `Disk -> "store"
  | `Miss -> "engine"
  | `Screen -> "prefilter"

let replica cache tally line =
  match Trace.with_ "protocol.parse" (fun () -> Serve.Protocol.request_of_line line) with
  | Ok (Serve.Protocol.Verify { id; groups }) ->
    let fps, uniq =
      Trace.with_ "service.resolve" (fun () ->
          let specs =
            List.map
              (fun g ->
                Array.of_list
                  (List.mapi (fun i a -> Sched.Appspec.with_id (spec_of_protocol a) i) g))
              groups
          in
          let fps = List.map Core.Mapping.fingerprint specs in
          let seen = Hashtbl.create 16 in
          let uniq =
            List.filter
              (fun (fp, _) ->
                (not (Hashtbl.mem seen fp)) && (Hashtbl.add seen fp (); true))
              (List.combine fps specs)
          in
          (fps, uniq))
    in
    let answers =
      Trace.with_ "pool" (fun () ->
          let pool = Par.Pool.default () in
          let submitted = Util.now () in
          let futures =
            Par.Pool.submit_list pool
              (List.map
                 (fun (_, specs) () ->
                   let start = Util.now () in
                   let answer = Core.Mapping.probe ~cache specs in
                   (answer, start, Util.now ()))
                 uniq)
          in
          let results = Par.Pool.await_list pool futures in
          List.iter
            (fun ((_, source), start, stop) ->
              Trace.add (span_of_source source) ~start ~stop;
              let d = stop -. start in
              tally.tasks <- tally.tasks + 1;
              tally.queue_wait_s <- tally.queue_wait_s +. (start -. submitted);
              tally.task_s <- tally.task_s +. d;
              match source with
              | `Mem ->
                tally.mem_n <- tally.mem_n + 1;
                tally.mem_s <- tally.mem_s +. d
              | `Disk ->
                tally.disk_n <- tally.disk_n + 1;
                tally.disk_s <- tally.disk_s +. d
              | `Miss -> tally.miss_n <- tally.miss_n + 1
              | `Screen -> ())
            results;
          let by_fp = Hashtbl.create 16 in
          List.iter2 (fun (fp, _) (answer, _, _) -> Hashtbl.replace by_fp fp answer) uniq results;
          by_fp)
    in
    let groups, output =
      Trace.with_ "service.assemble" (fun () ->
          let groups =
            List.map
              (fun fp ->
                let verdict, provenance = Hashtbl.find answers fp in
                { Serve.Protocol.fingerprint = Serve.Protocol.digest fp; verdict; provenance })
              fps
          in
          (groups, String.concat "\n" (List.map (fun g -> verdict_line g.Serve.Protocol.verdict) groups)))
    in
    Some (Trace.with_ "protocol.encode" (fun () -> Serve.Protocol.verify_response ~id ~groups ~output))
  | _ -> None

let open_store path =
  match Core.Pcache.open_ ~path with
  | Ok pc when not (Core.Pcache.read_only pc) -> pc
  | Ok _ -> failwith (path ^ ": store opened read-only")
  | Error m -> failwith (path ^ ": " ^ m)

(* about a quarter of a second of ops *)
let trace_block = 200

let run_traced ~exe ~tmp ~seed ~seconds =
  let s = fill ~exe ~tmp ~seed in
  let copy name =
    let dst = Filename.concat tmp name in
    Out_channel.with_open_bin dst (fun oc -> output_string oc (Util.read_file s.store));
    dst
  in
  let b1 = copy "service.store" and b2 = copy "replica.store" and b3 = copy "append.store" in
  Par.Pool.set_default_jobs jobs;
  let pc1 = open_store b1 in
  let svc = Serve.Service.create ~pcache:pc1 () in
  let t_open = Util.now () in
  let pc2 = open_store b2 in
  let open_s = Util.now () -. t_open in
  let store_mb = float_of_int (Unix.stat b2).Unix.st_size /. 1048576. in
  let cache = Core.Pcache.mapping_cache pc2 in
  let pc3 = open_store b3 in
  let c = respawn ~exe ~tmp s in
  let tally =
    { tasks = 0; queue_wait_s = 0.; task_s = 0.; mem_n = 0; mem_s = 0.; disk_n = 0;
      disk_s = 0.; miss_n = 0 }
  in
  let replayed = ref 0 and plain = ref [] and traced = ref [] and mismatched = ref 0 in
  let minor = ref 0. and major = ref 0 in
  let runs = ref 0 and states = ref 0 and engine_s = ref 0. and words = ref 0. in
  let appends = ref [] in
  let d = driver ~seed s in
  let replay (o, resp) =
    let start = Util.now () in
    let r1, _ = Serve.Service.handle_line svc o.line in
    let d1 = Util.now () -. start in
    incr replayed;
    let g0 = Gc.quick_stat () in
    let start = Util.now () in
    let r2 = Trace.with_op !replayed (fun () -> replica cache tally o.line) in
    let d2 = Util.now () -. start in
    let g1 = Gc.quick_stat () in
    minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
    plain := d1 :: !plain;
    traced := d2 :: !traced;
    if not (String.equal r1 resp && r2 = Some resp) then incr mismatched;
    (* the changed group, once more through the engine alone and
       appended to a store of its own *)
    let specs = Gen.specs o.group in
    let w0 = (Gc.quick_stat ()).Gc.minor_words in
    let start = Util.now () in
    let r = Core.Dverify.verify specs in
    engine_s := !engine_s +. (Util.now () -. start);
    words := !words +. ((Gc.quick_stat ()).Gc.minor_words -. w0);
    states := !states + r.Core.Dverify.stats.Core.Dverify.states;
    incr runs;
    let append v =
      let start = Util.now () in
      Core.Pcache.record_verdict pc3 specs v;
      appends := (Util.now () -. start) :: !appends
    in
    match r.Core.Dverify.verdict with
    | Core.Dverify.Safe -> append `Safe
    | Core.Dverify.Unsafe _ -> append `Unsafe
    | Core.Dverify.Undetermined _ -> incr mismatched
  in
  (* the transport's share: ping round trips to the child minus the
     same ping through handle_line in-process, where handle_line does
     almost nothing, so the two processes' heaps do not enter it *)
  let ping = "{\"kind\":\"ping\"}" and pings_rt = ref [] and pings_in = ref [] in
  let pings () =
    for _ = 1 to 20 do
      let start = Util.now () in
      let pong = request c ping in
      pings_rt := (Util.now () -. start) :: !pings_rt;
      let start = Util.now () in
      let pong' = fst (Serve.Service.handle_line svc ping) in
      pings_in := (Util.now () -. start) :: !pings_in;
      if not (String.equal pong pong') then incr mismatched
    done
  in
  let t0 = Util.now () in
  while Util.now () -. t0 < seconds do
    Array.iter replay (drive d s c trace_block);
    pings ()
  done;
  shutdown c;
  List.iter Core.Pcache.close [ pc1; pc2; pc3 ];
  let refuted = refuted d in
  print_mix s d.provs;
  let layers = Trace.summary () in
  Trace.print layers;
  let l name = (Trace.layer layers name).Trace.total in
  let nv = float_of_int !replayed in
  let tasks = float_of_int tally.tasks in
  let failed = Int.min d.ops (d.failed + !mismatched + refuted) in
  let gc = Gc.quick_stat () in
  {
    Layers.correct = s.fill_ok && failed = 0 && refuted = 0;
    attempted = d.ops;
    failed;
    metrics =
      Layers.metrics
        [
          ("dverify.runs_per_op", float_of_int tally.miss_n /. nv);
          ("dverify.states_per_op", float_of_int !states /. nv);
          ("dverify.ms_per_op", !engine_s *. 1000. /. nv);
          ("dverify.states_per_s", Util.ratio (float_of_int !states) !engine_s);
          ("dverify.words_per_state", Util.ratio !words (float_of_int !states));
          ("dverify.ms_per_run", Util.ratio (!engine_s *. 1000.) (float_of_int !runs));
          ("gc.major_collections_per_op", float_of_int !major /. nv);
          ("gc.top_heap_mb", float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
          ("gc.minor_kwords_per_op", !minor /. 1000. /. nv);
          ("daemon.us_per_request", (Util.mean !pings_rt -. Util.mean !pings_in) *. 1e6);
          ("protocol.us_per_parse", l "protocol.parse" *. 1e6 /. nv);
          ("protocol.us_per_encode", l "protocol.encode" *. 1e6 /. nv);
          ( "service.self_us_per_request",
            (Util.mean !plain -. ((l "protocol.parse" +. l "pool" +. l "protocol.encode") /. nv))
            *. 1e6 );
          ("vcache.mem_frac", Util.ratio (float_of_int tally.mem_n) tasks);
          ("vcache.us_per_hit", Util.ratio (tally.mem_s *. 1e6) (float_of_int tally.mem_n));
          ("store.open_s", open_s);
          ("store.mb", store_mb);
          ("store.disk_frac", Util.ratio (float_of_int tally.disk_n) tasks);
          ("store.us_per_find", Util.ratio (tally.disk_s *. 1e6) (float_of_int tally.disk_n));
          ("store.us_per_append", Util.mean !appends *. 1e6);
          ("pool.tasks_per_request", tasks /. nv);
          ("pool.queue_wait_us", Util.ratio (tally.queue_wait_s *. 1e6) tasks);
          ("pool.task_us", Util.ratio (tally.task_s *. 1e6) tasks);
          ("trace.coverage_frac", Trace.coverage layers);
          ("trace.overhead_frac", (Util.mean !traced /. Util.mean !plain) -. 1.);
        ];
  }
