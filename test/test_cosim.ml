(* Tests for the co-simulation layer: scenarios, the engine, and trace
   analysis. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let plant =
  Control.Plant.make
    ~phi:(Linalg.Mat.of_rows [ [ 0.95; 0.08 ]; [ 0.; 0.9 ] ])
    ~gamma:[| 0.004; 0.08 |] ~c:[| 1.; 0. |] ~h:0.02

let gains =
  let kt = Control.Pole_place.place_tt plant [ (0.25, 0.); (0.3, 0.) ] in
  let ke =
    Control.Pole_place.place_et plant [ (0.82, 0.); (0.85, 0.); (0.3, 0.) ]
  in
  Control.Switched.make_gains plant ~kt ~ke

let app name = Core.App.make ~name ~plant ~gains ~r:120 ~j_star:25 ()

let two_apps = [ app "A"; app "B" ]

let astr_contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Scenario *)

let test_scenario_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "unknown app" true
    (raises (fun () ->
         ignore
           (Cosim.Scenario.make ~apps:two_apps ~disturbances:[ (0, "Z") ]
              ~horizon:10)));
  check_bool "out of horizon" true
    (raises (fun () ->
         ignore
           (Cosim.Scenario.make ~apps:two_apps ~disturbances:[ (10, "A") ]
              ~horizon:10)));
  check_bool "violates r" true
    (raises (fun () ->
         ignore
           (Cosim.Scenario.make ~apps:two_apps
              ~disturbances:[ (0, "A"); (5, "A") ]
              ~horizon:200)));
  check_bool "respects r" true
    (try
       ignore
         (Cosim.Scenario.make ~apps:two_apps
            ~disturbances:[ (0, "A"); (120, "A") ]
            ~horizon:200);
       true
     with Invalid_argument _ -> false)

let test_scenario_index () =
  let sc = Cosim.Scenario.make ~apps:two_apps ~disturbances:[] ~horizon:5 in
  check_int "A" 0 (Cosim.Scenario.app_index sc "A");
  check_int "B" 1 (Cosim.Scenario.app_index sc "B");
  (* an unknown name must be reported with the names the scenario does
     have, not a bare Not_found *)
  check_bool "missing" true
    (try
       ignore (Cosim.Scenario.app_index sc "Z");
       false
     with Invalid_argument m ->
       check_bool "names the culprit" true
         (astr_contains m "Z" && astr_contains m "A" && astr_contains m "B");
       true)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_quiet_run () =
  let sc = Cosim.Scenario.make ~apps:two_apps ~disturbances:[] ~horizon:20 in
  let tr = Cosim.Engine.run sc in
  check_bool "all outputs zero" true
    (Array.for_all (fun row -> Array.for_all (fun y -> y = 0.) row) tr.Cosim.Trace.outputs);
  check_bool "slot never owned" true
    (Array.for_all (fun o -> o = None) tr.Cosim.Trace.owner)

let test_engine_single_disturbance () =
  let sc =
    Cosim.Scenario.make ~apps:two_apps ~disturbances:[ (3, "A") ] ~horizon:80
  in
  let tr = Cosim.Engine.run sc in
  check_bool "y jumps at 3" true (Float.abs (tr.Cosim.Trace.outputs.(0).(3) -. 1.) < 1e-12);
  check_bool "A owns at 3" true (tr.Cosim.Trace.owner.(3) = Some 0);
  (match Cosim.Trace.settling_after tr ~id:0 ~sample:3 with
   | Some j -> check_bool "meets budget" true (j <= 25)
   | None -> Alcotest.fail "must settle");
  check_bool "B untouched" true
    (Array.for_all (fun y -> y = 0.) tr.Cosim.Trace.outputs.(1));
  check_bool "meets requirements" true (Cosim.Trace.meets_requirements tr two_apps)

let test_engine_matches_strategy_sim () =
  (* an uncontended co-simulation must equal the open-loop strategy
     simulation with t_w = 0 and t_dw = T+_dw(0) *)
  let a = app "A" in
  let sc = Cosim.Scenario.make ~apps:[ a ] ~disturbances:[ (0, "A") ] ~horizon:60 in
  let tr = Cosim.Engine.run sc in
  let t_dw = a.Core.App.table.Core.Dwell.t_dw_max.(0) in
  let reference = Core.Strategy.response plant gains ~t_w:0 ~t_dw in
  Array.iteri
    (fun k y ->
      check_bool (Printf.sprintf "sample %d" k) true
        (Float.abs (y -. reference.(k)) < 1e-9))
    tr.Cosim.Trace.outputs.(0)

let test_engine_contention_preempts () =
  (* B arrives while A dwells: A must be preempted at its min dwell *)
  let a = app "A" and b = app "B" in
  let sc =
    Cosim.Scenario.make ~apps:[ a; b ]
      ~disturbances:[ (0, "A"); (1, "B") ]
      ~horizon:100
  in
  let tr = Cosim.Engine.run sc in
  let dmin = a.Core.App.table.Core.Dwell.t_dw_min.(0) in
  check_int "A holds exactly its min dwell" dmin (Cosim.Trace.tt_samples tr ~id:0);
  check_bool "both meet budgets" true (Cosim.Trace.meets_requirements tr [ a; b ])

let test_trace_intervals_and_rows () =
  let sc =
    Cosim.Scenario.make ~apps:two_apps
      ~disturbances:[ (0, "A"); (1, "B") ]
      ~horizon:50
  in
  let tr = Cosim.Engine.run sc in
  let intervals = Cosim.Trace.owner_intervals tr in
  check_bool "at least two intervals" true (List.length intervals >= 2);
  (* intervals tile the ownership trace *)
  List.iter
    (fun (id, a, b) ->
      check_bool "interval consistent" true (a <= b);
      for k = a to b do
        check_bool "owner matches" true (tr.Cosim.Trace.owner.(k) = Some id)
      done)
    intervals;
  let rows = Cosim.Trace.to_rows tr ~stride:10 in
  check_int "header + 5 rows" 6 (List.length rows)

let test_trace_gantt () =
  let sc =
    Cosim.Scenario.make ~apps:two_apps ~disturbances:[ (0, "A") ] ~horizon:10
  in
  let tr = Cosim.Engine.run sc in
  match Cosim.Trace.to_gantt tr with
  | [ a_line; b_line ] ->
    (* A: disturbed at 0 (the '*' wins over '#'), then owns the slot *)
    check_bool "A row marks disturbance" true
      (String.length a_line > 3 && String.contains a_line '*');
    check_bool "A owns" true (String.contains a_line '#');
    check_bool "B idle" false (String.contains b_line '#')
  | _ -> Alcotest.fail "two rows expected"

(* ------------------------------------------------------------------ *)
(* System *)

let test_system_routes_disturbances () =
  let a = app "A" and b = app "B" and c = app "C" in
  let report =
    Cosim.System.run
      ~slots:[ [ a; b ]; [ c ] ]
      ~disturbances:[ (0, "A"); (0, "C"); (5, "B") ]
      ~horizon:80
  in
  check_int "two slots" 2 (List.length report.Cosim.System.slots);
  check_int "three settlings" 3 (List.length report.Cosim.System.settlings);
  check_bool "all met" true report.Cosim.System.all_requirements_met;
  (* C shares no slot, so it is never preempted: full dwell *)
  let c_tt = List.assoc "C" report.Cosim.System.tt_samples in
  check_int "C uses T+dw(0)" c.Core.App.table.Core.Dwell.t_dw_max.(0) c_tt

let test_system_validation () =
  let a = app "A" and b = app "B" in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "duplicate app" true
    (raises (fun () ->
         ignore
           (Cosim.System.run ~slots:[ [ a ]; [ a ] ] ~disturbances:[]
              ~horizon:10)));
  check_bool "unmapped app" true
    (raises (fun () ->
         ignore
           (Cosim.System.run ~slots:[ [ a; b ] ]
              ~disturbances:[ (0, "Z") ] ~horizon:10)))

let test_system_of_mapping () =
  let apps = [ app "A"; app "B" ] in
  let outcome = Core.Mapping.first_fit apps in
  let report =
    Cosim.System.of_mapping outcome ~disturbances:[ (0, "A"); (1, "B") ]
      ~horizon:80
  in
  check_bool "all met" true report.Cosim.System.all_requirements_met

(* ------------------------------------------------------------------ *)
(* Bus-level validation *)

let test_bus_check_facts_hold () =
  let a = app "A" and b = app "B" and c = app "C" in
  let report =
    Cosim.System.run
      ~slots:[ [ a; b ]; [ c ] ]
      ~disturbances:[ (0, "A"); (0, "C"); (5, "B") ]
      ~horizon:60
  in
  let r =
    Cosim.System.bus_validate ~bus:Flexray.Backend.default report
  in
  check_bool "all delivered" true r.Cosim.Bus_check.all_delivered;
  check_bool "TT deterministic" true r.Cosim.Bus_check.tt_deterministic;
  check_bool "ET one-sample" true r.Cosim.Bus_check.one_sample_ok;
  check_bool "both classes used" true
    (r.Cosim.Bus_check.tt_count > 0 && r.Cosim.Bus_check.et_count > 0);
  check_int "conservation" r.Cosim.Bus_check.messages
    (r.Cosim.Bus_check.tt_count + r.Cosim.Bus_check.et_count)

let test_bus_check_validation () =
  let a = app "A" in
  let report =
    Cosim.System.run ~slots:[ [ a ] ] ~disturbances:[] ~horizon:5
  in
  let tiny =
    Flexray.Backend.configured
      (Flexray.Config.make ~static_slot_count:1 ~static_slot_us:10
         ~minislot_count:4 ~minislot_us:2)
  in
  check_bool "segment too small" true
    (try
       ignore (Cosim.System.bus_validate ~bus:tiny report);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Export *)

let test_export_trace_csv () =
  let sc =
    Cosim.Scenario.make ~apps:two_apps ~disturbances:[ (0, "A") ] ~horizon:5
  in
  let tr = Cosim.Engine.run sc in
  let csv = Cosim.Export.trace_csv tr in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 5 rows" 6 (List.length lines);
  check_bool "header" true
    (String.equal (List.hd lines) "t_s,sample,y_A,y_B,owner");
  (* the disturbed sample shows y_A = 1 and owner A *)
  check_bool "first data row" true
    (String.equal (List.nth lines 1) "0.0000,0,1,0,A")

let test_export_surface_and_dwell_csv () =
  let surface = [ (0, 1, Some 10); (0, 2, None) ] in
  let csv = Cosim.Export.surface_csv surface ~h:0.02 in
  check_bool "unsettled row empty" true
    (String.equal (List.nth (String.split_on_char '\n' csv) 2) "0,2,,");
  let a = app "A" in
  let csv = Cosim.Export.dwell_csv a.Core.App.table ~h:0.02 in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "rows"
    (Array.length a.Core.App.table.Core.Dwell.t_dw_min + 1)
    (List.length lines)

let test_export_write_file () =
  let path = Filename.temp_file "cpsdim" ".csv" in
  (match Cosim.Export.write_file ~path "a,b\n1,2\n" with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  check_bool "contents" true (String.equal line "a,b");
  check_bool "bad path errors" true
    (Result.is_error
       (Cosim.Export.write_file ~path:"/nonexistent-dir/x.csv" "x"))

let () =
  Alcotest.run "cosim"
    [
      ( "scenario",
        [
          Alcotest.test_case "validation" `Quick test_scenario_validation;
          Alcotest.test_case "index" `Quick test_scenario_index;
        ] );
      ( "engine",
        [
          Alcotest.test_case "quiet run" `Quick test_engine_quiet_run;
          Alcotest.test_case "single disturbance" `Quick test_engine_single_disturbance;
          Alcotest.test_case "matches strategy sim" `Quick test_engine_matches_strategy_sim;
          Alcotest.test_case "contention preempts" `Quick test_engine_contention_preempts;
        ] );
      ( "trace",
        [
          Alcotest.test_case "intervals and rows" `Quick test_trace_intervals_and_rows;
          Alcotest.test_case "gantt" `Quick test_trace_gantt;
        ] );
      ( "system",
        [
          Alcotest.test_case "routes disturbances" `Quick test_system_routes_disturbances;
          Alcotest.test_case "validation" `Quick test_system_validation;
          Alcotest.test_case "of_mapping" `Quick test_system_of_mapping;
        ] );
      ( "bus check",
        [
          Alcotest.test_case "network facts hold" `Quick test_bus_check_facts_hold;
          Alcotest.test_case "validation" `Quick test_bus_check_validation;
        ] );
      ( "export",
        [
          Alcotest.test_case "trace csv" `Quick test_export_trace_csv;
          Alcotest.test_case "surface and dwell csv" `Quick test_export_surface_and_dwell_csv;
          Alcotest.test_case "write file" `Quick test_export_write_file;
        ] );
    ]
