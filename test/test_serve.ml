(* The serve protocol and service: parsing, routing, robustness
   (malformed input must produce structured errors, never a crash),
   incremental re-verification, and byte-identical responses at any
   jobs count. *)

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* response helpers *)

let parse_response line =
  match Obs.Jsonx.of_string line with
  | Ok (Obs.Jsonx.Assoc kvs) -> kvs
  | Ok _ -> Alcotest.failf "response is not an object: %s" line
  | Error m -> Alcotest.failf "response is not JSON (%s): %s" m line

let field kvs key =
  match List.assoc_opt key kvs with
  | Some j -> j
  | None -> Alcotest.failf "response lacks %S" key

let str_field kvs key =
  match field kvs key with
  | Obs.Jsonx.String s -> s
  | _ -> Alcotest.failf "%S is not a string" key

let ok_of kvs =
  match field kvs "ok" with
  | Obs.Jsonx.Bool b -> b
  | _ -> Alcotest.fail "\"ok\" is not a boolean"

let group_field kvs i key =
  match field kvs "groups" with
  | Obs.Jsonx.List gs -> (
    match List.nth_opt gs i with
    | Some (Obs.Jsonx.Assoc g) -> (
      match List.assoc_opt key g with
      | Some (Obs.Jsonx.String s) -> s
      | _ -> Alcotest.failf "group %d lacks string %S" i key)
    | _ -> Alcotest.failf "no group %d" i)
  | _ -> Alcotest.fail "\"groups\" is not an array"

let expect_error svc line =
  let response, control = Serve.Service.handle_line svc line in
  let kvs = parse_response response in
  checkb "request continues" true (control = `Continue);
  checkb "request failed" false (ok_of kvs);
  str_field kvs "error"

(* inline applications keep these tests independent of the (slow)
   case-study dwell computations *)
let inline_app ?(t_dw_max = 2) name r =
  Printf.sprintf
    "{\"name\":%S,\"t_w_max\":1,\"t_dw_min\":[1,1],\"t_dw_max\":[1,%d],\"r\":%d}"
    name t_dw_max r

(* ------------------------------------------------------------------ *)
(* protocol parsing *)

let test_protocol_parse () =
  let parse line =
    match Serve.Protocol.request_of_line line with
    | Ok r -> r
    | Error (_, m) -> Alcotest.failf "parse %s: %s" line m
  in
  (match parse "{\"id\":7,\"kind\":\"verify\",\"groups\":[[\"C1\"],[\"C2\",{\"name\":\"C3\",\"j_star\":30}]]}" with
   | Serve.Protocol.Verify { id; groups } ->
     checkb "id echoed" true (id = Obs.Jsonx.Int 7);
     (match groups with
      | [ [ Named "C1" ]; [ Named "C2"; Override { name = "C3"; j_star = 30 } ] ]
        -> ()
      | _ -> Alcotest.fail "groups misparsed")
   | _ -> Alcotest.fail "not a verify request");
  (match parse ("{\"kind\":\"verify\",\"groups\":[[" ^ inline_app "A" 9 ^ "]]}") with
   | Serve.Protocol.Verify
       { groups = [ [ Inline { name = "A"; t_w_max = 1; r = 9; _ } ] ]; id }
     ->
     checkb "missing id reads null" true (id = Obs.Jsonx.Null)
   | _ -> Alcotest.fail "inline app misparsed");
  (match parse "{\"kind\":\"map\",\"optimal\":true}" with
   | Serve.Protocol.Map { optimal = true; _ } -> ()
   | _ -> Alcotest.fail "map misparsed");
  (match parse "{\"kind\":\"dwell\",\"app\":\"C1\",\"j_star\":25}" with
   | Serve.Protocol.Dwell { app = "C1"; j_star = Some 25; _ } -> ()
   | _ -> Alcotest.fail "dwell misparsed");
  (match parse "{\"kind\":\"shutdown\"}" with
   | Serve.Protocol.Shutdown _ -> ()
   | _ -> Alcotest.fail "shutdown misparsed");
  let fails line =
    match Serve.Protocol.request_of_line line with
    | Ok _ -> Alcotest.failf "parsed: %s" line
    | Error (_, m) -> m
  in
  checkb "json error named" true
    (String.length (fails "{oops") > 0);
  checkb "kind checked" true
    (String.length (fails "{\"id\":1,\"groups\":[]}") > 0);
  checkb "empty groups rejected" true
    (String.length (fails "{\"kind\":\"verify\",\"groups\":[]}") > 0);
  checkb "empty group rejected" true
    (String.length (fails "{\"kind\":\"verify\",\"groups\":[[]]}") > 0);
  checkb "non-object rejected" true
    (String.length (fails "[1,2]") > 0)

(* ------------------------------------------------------------------ *)
(* verify semantics: verdicts, provenance, incremental accounting *)

let test_verify_incremental () =
  let svc = Serve.Service.create () in
  let req =
    Printf.sprintf "{\"id\":1,\"kind\":\"verify\",\"groups\":[[%s],[%s,%s],[%s]]}"
      (inline_app "A" 9) (inline_app "A" 9) (inline_app "B" 9) (inline_app "A" 9)
  in
  let response, control = Serve.Service.handle_line svc req in
  checkb "continues" true (control = `Continue);
  let kvs = parse_response response in
  checkb "ok" true (ok_of kvs);
  checks "cold provenance" "engine" (group_field kvs 0 "provenance");
  checks "cold verdict" "safe" (group_field kvs 0 "verdict");
  (* the third group repeats the first: deduplicated within the
     request, it reports the shared probe's provenance *)
  checks "duplicate group shares the probe" (group_field kvs 0 "fingerprint")
    (group_field kvs 2 "fingerprint");
  checki "two engine runs for two distinct groups" 2
    (Serve.Service.engine_runs svc);
  checki "no skips yet" 0 (Serve.Service.incremental_skips svc);
  (* the same question again: answered from memory, engine untouched *)
  let response2, _ = Serve.Service.handle_line svc req in
  let kvs2 = parse_response response2 in
  checks "warm provenance" "mem" (group_field kvs2 0 "provenance");
  checki "engine not re-run" 2 (Serve.Service.engine_runs svc);
  checki "both distinct groups skipped" 2 (Serve.Service.incremental_skips svc);
  checks "same verdict bytes" (str_field kvs "output") (str_field kvs2 "output");
  (* one changed application invalidates exactly its own group *)
  let req3 =
    Printf.sprintf "{\"id\":3,\"kind\":\"verify\",\"groups\":[[%s],[%s,%s]]}"
      (inline_app "A" 9) (inline_app "A" 9) (inline_app ~t_dw_max:3 "B" 9)
  in
  let response3, _ = Serve.Service.handle_line svc req3 in
  let kvs3 = parse_response response3 in
  checks "unchanged group skipped" "mem" (group_field kvs3 0 "provenance");
  checks "changed group re-verified" "engine" (group_field kvs3 1 "provenance");
  checki "exactly one more engine run" 3 (Serve.Service.engine_runs svc);
  checki "requests counted" 3 (Serve.Service.requests svc)

(* ------------------------------------------------------------------ *)
(* cache accounting across processes: a service opened on a store that
   an earlier one filled answers map and dwell from disk, reports those
   answers under "disk" (never as negative "mem") and counts them as
   incremental skips *)

(* [handle_line], returning the engine/mem/disk fields of the request's
   serve.request event *)
let handle_counted svc line =
  ignore (Obs.Event.drain ());
  let response, _ = Serve.Service.handle_line svc line in
  checkb "ok" true (ok_of (parse_response response));
  match
    List.filter
      (fun (e : Obs.Event.t) -> e.Obs.Event.name = "serve.request")
      (Obs.Event.drain ())
  with
  | [ e ] ->
    let int key =
      match List.assoc_opt key e.Obs.Event.fields with
      | Some (Obs.Event.Int n) -> n
      | _ -> Alcotest.failf "serve.request lacks %S" key
    in
    (int "engine", int "mem", int "disk")
  | evs -> Alcotest.failf "%d serve.request events" (List.length evs)

let test_store_accounting () =
  let path = Filename.temp_file "cpsdim-serve" ".store" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      Obs.Event.reset ();
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".lock" ])
  @@ fun () ->
  Obs.Event.enable ();
  let with_service f =
    match Core.Pcache.open_ ~path with
    | Error m -> Alcotest.fail m
    | Ok pc ->
      Fun.protect
        ~finally:(fun () -> Core.Pcache.close pc)
        (fun () -> f (Serve.Service.create ~pcache:pc ()))
  in
  let map = "{\"id\":1,\"kind\":\"map\"}"
  and dwell = "{\"id\":2,\"kind\":\"dwell\",\"app\":\"C1\"}" in
  let cold_engine =
    with_service @@ fun svc ->
    let engine, mem, disk = handle_counted svc map in
    checkb "cold map runs the engine" true (engine > 0);
    checki "cold map: nothing in memory" 0 mem;
    checki "cold map: nothing on disk" 0 disk;
    engine
  in
  with_service @@ fun svc ->
  let engine, mem, disk = handle_counted svc dwell in
  checki "warm dwell: no computation" 0 engine;
  checki "warm dwell: not from memory" 0 mem;
  checki "warm dwell: from the store" 1 disk;
  let engine, mem, disk = handle_counted svc map in
  checki "warm map: no engine run" 0 engine;
  checki "warm map: not from memory" 0 mem;
  checki "warm map: every cached group from the store" cold_engine disk;
  checki "store answers count as skips" (1 + cold_engine)
    (Serve.Service.incremental_skips svc)

(* ------------------------------------------------------------------ *)
(* robustness: every bad line gets a structured error, service stays up *)

let test_robustness () =
  let svc = Serve.Service.create () in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    ln = 0 || go 0
  in
  checkb "malformed JSON named" true
    (contains (expect_error svc "{\"id\":1,\"kind\":") "bad JSON");
  checkb "unknown kind named" true
    (contains (expect_error svc "{\"kind\":\"frob\"}") "\"frob\"");
  checkb "unknown app named" true
    (contains
       (expect_error svc "{\"kind\":\"verify\",\"groups\":[[\"C9\"]]}")
       "\"C9\"");
  checkb "unknown dwell app named" true
    (contains (expect_error svc "{\"kind\":\"dwell\",\"app\":\"C9\"}") "\"C9\"");
  checkb "missing dwell app named" true
    (contains (expect_error svc "{\"kind\":\"dwell\"}") "app");
  checkb "bad group shape named" true
    (contains
       (expect_error svc "{\"kind\":\"verify\",\"groups\":[[42]]}")
       "application");
  (* an inline spec violating the sporadic model (r too small) is an
     Invalid_argument deep in Appspec.make: must come back as an error
     response naming the application, not an exception *)
  checkb "invalid inline spec named" true
    (contains
       (expect_error svc
          (Printf.sprintf "{\"kind\":\"verify\",\"groups\":[[%s]]}"
             (inline_app "A" 2)))
       "\"A\"");
  checkb "id still echoed on error" true
    (let response, _ =
       Serve.Service.handle_line svc "{\"id\":41,\"kind\":\"frob\"}"
     in
     field (parse_response response) "id" = Obs.Jsonx.Int 41);
  checki "every bad line counted" 8 (Serve.Service.requests svc);
  checki "no engine runs spent on bad lines" 0 (Serve.Service.engine_runs svc);
  (* the service survived all of the above *)
  let response, control = Serve.Service.handle_line svc "{\"kind\":\"ping\"}" in
  checkb "still serving" true (ok_of (parse_response response));
  checkb "still continuing" true (control = `Continue)

(* ------------------------------------------------------------------ *)
(* determinism: byte-identical response streams at jobs 1, 2 and 4 *)

let test_jobs_identical () =
  let batch =
    [
      Printf.sprintf "{\"id\":1,\"kind\":\"verify\",\"groups\":[[%s],[%s],[%s,%s]]}"
        (inline_app "A" 9) (inline_app "B" 11) (inline_app "A" 9)
        (inline_app "B" 11);
      "{\"id\":2,\"kind\":\"verify\",\"groups\":[[" ^ inline_app "B" 11 ^ "]]}";
      "{\"id\":3,\"kind\":\"nope\"}";
      "{\"id\":4,\"kind\":\"ping\"}";
    ]
  in
  let run jobs =
    Par.Pool.set_default_jobs jobs;
    let svc = Serve.Service.create () in
    String.concat "\n"
      (List.map (fun l -> fst (Serve.Service.handle_line svc l)) batch)
  in
  Fun.protect
    ~finally:(fun () -> Par.Pool.set_default_jobs 1)
    (fun () ->
      let seq = run 1 in
      checks "jobs=2 byte-identical" seq (run 2);
      checks "jobs=4 byte-identical" seq (run 4))

(* ------------------------------------------------------------------ *)
(* daemon loop over real channels *)

let run_batch svc payload =
  let r_fd, w_fd = Unix.pipe () in
  let w_oc = Unix.out_channel_of_descr w_fd in
  Out_channel.output_string w_oc payload;
  (* closing simulates the client going away mid-line when the payload
     lacks its final newline *)
  Out_channel.close w_oc;
  let ic = Unix.in_channel_of_descr r_fd in
  let out_path = Filename.temp_file "cpsdim-serve" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out_path with Sys_error _ -> ())
    (fun () ->
      let oc = Out_channel.open_text out_path in
      let outcome =
        Fun.protect
          ~finally:(fun () ->
            Out_channel.close oc;
            In_channel.close ic)
          (fun () -> Serve.Daemon.run_channels svc ic oc)
      in
      (outcome, In_channel.with_open_text out_path In_channel.input_all))

let test_daemon_channels () =
  let svc = Serve.Service.create () in
  (* blank lines skipped; truncated final line (no newline) still
     answered — with a parse error, since it was cut short *)
  let payload =
    "{\"id\":1,\"kind\":\"ping\"}\n\n  \n{\"id\":2,\"kind\":\"verify\",\"groups\":[["
    ^ inline_app "A" 9 ^ "]]}\n{\"id\":3,\"kind\":\"pi"
  in
  let outcome, out = run_batch svc payload in
  checkb "client EOF ends the connection" true (outcome = `Eof);
  let lines = String.split_on_char '\n' (String.trim out) in
  checki "three answers for three requests" 3 (List.length lines);
  let kvs = List.map parse_response lines in
  checkb "ping ok" true (ok_of (List.nth kvs 0));
  checkb "verify ok" true (ok_of (List.nth kvs 1));
  checkb "truncated line got a structured error" false (ok_of (List.nth kvs 2));
  (* a second client on the same service: caches stay warm across
     connections, and shutdown stops the loop *)
  let payload2 =
    "{\"id\":4,\"kind\":\"verify\",\"groups\":[[" ^ inline_app "A" 9
    ^ "]]}\n{\"id\":5,\"kind\":\"shutdown\"}\n{\"id\":6,\"kind\":\"ping\"}\n"
  in
  let outcome2, out2 = run_batch svc payload2 in
  checkb "shutdown stops the loop" true (outcome2 = `Stopped);
  let lines2 = String.split_on_char '\n' (String.trim out2) in
  checki "nothing answered after shutdown" 2 (List.length lines2);
  checks "second client served from the warm cache" "mem"
    (group_field (parse_response (List.hd lines2)) 0 "provenance")

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request parsing" `Quick test_protocol_parse;
        ] );
      ( "service",
        [
          Alcotest.test_case "incremental verify" `Quick test_verify_incremental;
          Alcotest.test_case "store answers counted as disk" `Quick
            test_store_accounting;
          Alcotest.test_case "robust against bad input" `Quick test_robustness;
          Alcotest.test_case "byte-identical at jobs 1/2/4" `Quick
            test_jobs_identical;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "channel loop" `Quick test_daemon_channels;
        ] );
    ]
