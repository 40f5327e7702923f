(* lib/obs: spans, metrics, reports, sinks, and the disabled path *)

let fresh () =
  Obs.Trace_ctx.disable ();
  Obs.Trace_ctx.reset ();
  Obs.Span.reset ();
  Obs.Metric.reset ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* spans *)

let test_span_nesting () =
  fresh ();
  Obs.Trace_ctx.enable ();
  Obs.Span.with_ "root" (fun () ->
      Obs.Span.with_ "child-a" (fun () ->
          Obs.Span.with_ "grandchild" (fun () -> ()));
      Obs.Span.with_ "child-b" (fun () -> ()));
  let spans = Obs.Span.drain () in
  check_int "four spans" 4 (List.length spans);
  let find name =
    List.find (fun (s : Obs.Span.record) -> s.Obs.Span.name = name) spans
  in
  let root = find "root" in
  check_bool "root has no parent" true (root.Obs.Span.parent = None);
  check_bool "child-a under root" true
    ((find "child-a").Obs.Span.parent = Some root.Obs.Span.id);
  check_bool "child-b under root" true
    ((find "child-b").Obs.Span.parent = Some root.Obs.Span.id);
  check_bool "grandchild under child-a" true
    ((find "grandchild").Obs.Span.parent = Some (find "child-a").Obs.Span.id);
  check_bool "drain clears" true (Obs.Span.drain () = [])

let test_span_exception_safety () =
  fresh ();
  Obs.Trace_ctx.enable ();
  (try
     Obs.Span.with_ "outer" (fun () ->
         Obs.Span.with_ "thrower" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let spans = Obs.Span.drain () in
  check_int "both spans finished" 2 (List.length spans);
  (* a span started after the unwind nests at top level again *)
  Obs.Span.with_ "after" (fun () -> ());
  match Obs.Span.drain () with
  | [ s ] -> check_bool "no stale parent" true (s.Obs.Span.parent = None)
  | _ -> Alcotest.fail "expected one span"

(* ------------------------------------------------------------------ *)
(* metrics *)

let test_histogram_percentiles () =
  fresh ();
  Obs.Trace_ctx.enable ();
  let h = Obs.Metric.histogram "t.hist" in
  (* 1..100 shuffled deterministically *)
  List.iter
    (fun i -> Obs.Metric.observe h (float_of_int ((i * 37 mod 100) + 1)))
    (List.init 100 (fun i -> i));
  Alcotest.(check (float 0.0)) "p50" 50. (Obs.Metric.percentile h 0.5);
  Alcotest.(check (float 0.0)) "p90" 90. (Obs.Metric.percentile h 0.9);
  Alcotest.(check (float 0.0)) "p99" 99. (Obs.Metric.percentile h 0.99);
  Alcotest.(check (float 0.0)) "p100" 100. (Obs.Metric.percentile h 1.0);
  check_bool "empty histogram is nan" true
    (Float.is_nan (Obs.Metric.percentile (Obs.Metric.histogram "t.empty") 0.5))

let test_counter_reentrancy () =
  fresh ();
  Obs.Trace_ctx.enable ();
  let c = Obs.Metric.counter "t.counter" in
  (* increments interleaved across re-entrant frames must all land *)
  let rec recurse depth =
    if depth > 0 then begin
      Obs.Metric.incr c;
      Obs.Span.with_ "frame" (fun () ->
          Obs.Metric.incr c;
          recurse (depth - 1));
      Obs.Metric.incr c
    end
  in
  recurse 100;
  check_int "300 increments" 300 (Obs.Metric.value c);
  check_bool "same name, same counter" true
    (Obs.Metric.value (Obs.Metric.counter "t.counter") = 300);
  Obs.Metric.add c (-300);
  check_int "negative add" 0 (Obs.Metric.value c)

let test_gauge_max () =
  fresh ();
  Obs.Trace_ctx.enable ();
  let g = Obs.Metric.gauge "t.peak" in
  check_bool "unset" true (Obs.Metric.gauge_value g = None);
  Obs.Metric.set_max g 3.;
  Obs.Metric.set_max g 7.;
  Obs.Metric.set_max g 5.;
  check_bool "peak kept" true (Obs.Metric.gauge_value g = Some 7.)

(* ------------------------------------------------------------------ *)
(* disabled mode *)

let test_disabled_noop () =
  fresh ();
  (* everything below runs with the switch off *)
  let c = Obs.Metric.counter "t.off.counter" in
  Obs.Metric.incr c;
  Obs.Metric.add c 42;
  Obs.Metric.count "t.off.oneshot" 9;
  Obs.Metric.set_gauge "t.off.gauge" 1.;
  Obs.Metric.observe_value "t.off.hist" 1.;
  let s = Obs.Span.start "t.off.span" in
  Obs.Span.finish s;
  Obs.Span.with_ "t.off.wrapped" (fun () -> ());
  check_bool "span handle is none" true (s = Obs.Span.none);
  check_int "counter untouched" 0 (Obs.Metric.value c);
  check_bool "no spans recorded" true (Obs.Span.drain () = []);
  check_bool "registry snapshot empty" true (Obs.Metric.snapshot () = []);
  (* instrumented engines still compute correct results while disabled *)
  let apps =
    List.map
      (fun (a : Casestudy.app) ->
        Core.App.make ~name:a.Casestudy.name ~plant:a.Casestudy.plant
          ~gains:a.Casestudy.gains ~r:a.Casestudy.r ~j_star:a.Casestudy.j_star ())
      [ Casestudy.find "C6"; Casestudy.find "C2" ]
  in
  let r = Core.Dverify.verify (Core.Mapping.specs_of_group apps) in
  check_bool "verdict unaffected" true (r.Core.Dverify.verdict = Core.Dverify.Safe);
  check_bool "still nothing recorded" true (Obs.Metric.snapshot () = [])

(* ------------------------------------------------------------------ *)
(* reports: JSONL round-trip through a sink *)

let test_jsonl_roundtrip () =
  fresh ();
  Obs.Trace_ctx.enable ();
  Obs.Span.with_ "root" (fun () -> Obs.Span.with_ "inner" (fun () -> ()));
  Obs.Metric.count "t.states" 123;
  Obs.Metric.set_gauge "t.rate" 456.5;
  List.iter (fun v -> Obs.Metric.observe_value "t.lat" (float_of_int v)) [ 1; 2; 3; 4 ];
  let report = Obs.Report.collect ~command:"test \"quoted\"" () in
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Obs.Sink.jsonl ~path in
      Obs.Sink.emit sink report;
      Obs.Sink.emit sink report;
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> String.trim l <> "")
      in
      check_int "one line per emit" 2 (List.length lines);
      match
        Result.bind
          (Obs.Report.json_of_string (List.nth lines 1))
          Obs.Report.of_json
      with
      | Error m -> Alcotest.fail ("round-trip failed: " ^ m)
      | Ok r ->
        Alcotest.(check string) "command" report.Obs.Report.command r.Obs.Report.command;
        check_int "span count" 2 (List.length r.Obs.Report.spans);
        check_bool "metrics preserved" true
          (r.Obs.Report.metrics = report.Obs.Report.metrics);
        let inner =
          List.find
            (fun (s : Obs.Span.record) -> s.Obs.Span.name = "inner")
            r.Obs.Report.spans
        in
        let root =
          List.find
            (fun (s : Obs.Span.record) -> s.Obs.Span.name = "root")
            r.Obs.Report.spans
        in
        check_bool "nesting preserved" true
          (inner.Obs.Span.parent = Some root.Obs.Span.id))

let test_json_parser () =
  let ok s = Result.is_ok (Obs.Report.json_of_string s) in
  check_bool "object" true (ok {|{"a": [1, 2.5, null, true, "x\n"]}|});
  check_bool "nested" true (ok {|[[{"k":{"v":[-1e-3]}}]]|});
  check_bool "trailing garbage rejected" false (ok "{}{}");
  check_bool "unterminated rejected" false (ok {|{"a": 1|});
  check_bool "bare word rejected" false (ok "states");
  (* escapes survive a print/parse cycle *)
  let j = Obs.Report.String "a\"b\\c\nd\te" in
  check_bool "string round-trip" true
    (Obs.Report.json_of_string (Obs.Report.json_to_string j) = Ok j)

(* ------------------------------------------------------------------ *)
(* instrumentation of the engines *)

let find_counter name metrics =
  List.find_map
    (function
      | Obs.Metric.Counter (n, v) when n = name -> Some v
      | _ -> None)
    metrics

let test_engine_metrics () =
  fresh ();
  Obs.Trace_ctx.enable ();
  let apps =
    List.map
      (fun (a : Casestudy.app) ->
        Core.App.make ~name:a.Casestudy.name ~plant:a.Casestudy.plant
          ~gains:a.Casestudy.gains ~r:a.Casestudy.r ~j_star:a.Casestudy.j_star ())
      [ Casestudy.find "C6"; Casestudy.find "C2" ]
  in
  let specs = Core.Mapping.specs_of_group apps in
  let dr = Core.Dverify.verify specs in
  let tr = Core.Ta_model.verify specs in
  let report = Obs.Report.collect ~command:"engines" () in
  let m = report.Obs.Report.metrics in
  check_bool "dverify.states matches stats" true
    (find_counter "dverify.states" m
    = Some dr.Core.Dverify.stats.Core.Dverify.states);
  check_bool "ta.reach.states matches stats" true
    (find_counter "ta.reach.states" m
    = Some tr.Core.Ta_model.stats.Ta.Reach.states);
  check_bool "ta stats track dedup hits" true
    (tr.Core.Ta_model.stats.Ta.Reach.dedup_hits > 0);
  check_bool "ta stats track waiting peak" true
    (tr.Core.Ta_model.stats.Ta.Reach.waiting_peak > 0);
  check_bool "dwell simulations counted" true
    (match find_counter "dwell.simulations" m with
     | Some n -> n > 0
     | None -> false);
  check_bool "spans include both engines" true
    (List.exists (fun (s : Obs.Span.record) -> s.Obs.Span.name = "dverify")
       report.Obs.Report.spans
    && List.exists (fun (s : Obs.Span.record) -> s.Obs.Span.name = "ta.reach")
         report.Obs.Report.spans)

(* ------------------------------------------------------------------ *)
(* multi-domain safety: every op from every domain must land exactly *)

let test_metric_hammer () =
  fresh ();
  Obs.Trace_ctx.enable ();
  let per_domain = 10_000 and domains = 4 in
  let worker d () =
    let c = Obs.Metric.counter "t.hammer.count" in
    let g = Obs.Metric.gauge "t.hammer.peak" in
    let h = Obs.Metric.histogram "t.hammer.lat" in
    for i = 1 to per_domain do
      Obs.Metric.incr c;
      Obs.Metric.observe h (float_of_int i);
      Obs.Metric.set_max g (float_of_int ((d * per_domain) + i))
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  check_int "every increment landed" (domains * per_domain)
    (Obs.Metric.value (Obs.Metric.counter "t.hammer.count"));
  check_bool "racing set_max keeps the exact peak" true
    (Obs.Metric.gauge_value (Obs.Metric.gauge "t.hammer.peak")
    = Some (float_of_int (domains * per_domain)));
  match
    List.find_map
      (function
        | Obs.Metric.Histogram ("t.hammer.lat", s) -> Some s
        | _ -> None)
      (Obs.Metric.snapshot ())
  with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some s ->
    check_int "every observation landed" (domains * per_domain) s.Obs.Metric.n;
    check_bool "max sample intact" true
      (s.Obs.Metric.max = float_of_int per_domain)

(* ------------------------------------------------------------------ *)
(* bounded buffers: span ring overwrites oldest, event queue drops
   newest — both count what they lost *)

let test_span_ring_bound () =
  fresh ();
  Obs.Trace_ctx.enable ();
  Obs.Span.set_capacity 100;
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_capacity 8192)
    (fun () ->
      for i = 0 to 149 do
        Obs.Span.with_ (Printf.sprintf "s%03d" i) (fun () -> ())
      done;
      check_int "overwrites counted" 50 (Obs.Span.dropped ());
      let spans = Obs.Span.drain () in
      check_int "ring holds exactly its capacity" 100 (List.length spans);
      match spans with
      | first :: _ ->
        Alcotest.(check string) "oldest survivor is s050" "s050"
          first.Obs.Span.name
      | [] -> Alcotest.fail "empty drain")

let test_event_queue_bound () =
  fresh ();
  Obs.Event.reset ();
  Obs.Event.emit "t.off" [ ("i", Obs.Event.Int 0) ];
  check_bool "disabled stream stays empty" true (Obs.Event.drain () = []);
  Obs.Event.set_capacity 4;
  Fun.protect
    ~finally:(fun () ->
      Obs.Event.reset ();
      Obs.Event.set_capacity 65536)
    (fun () ->
      Obs.Event.enable ();
      for i = 0 to 5 do
        Obs.Event.emit "t.ev" [ ("i", Obs.Event.Int i) ]
      done;
      check_int "newest two dropped" 2 (Obs.Event.dropped ());
      let evs = Obs.Event.drain () in
      check_int "queue bounded" 4 (List.length evs);
      List.iteri
        (fun i (e : Obs.Event.t) ->
          check_bool "run prefix kept in order" true
            (e.Obs.Event.fields = [ ("i", Obs.Event.Int i) ]);
          check_bool "timestamp is non-negative" true (e.Obs.Event.ts_s >= 0.))
        evs;
      (* the JSONL record parses back and leads with the event name *)
      match
        Obs.Report.json_of_string
          (Obs.Report.json_to_string (Obs.Event.to_json (List.hd evs)))
      with
      | Ok (Obs.Report.Assoc (("ev", Obs.Report.String "t.ev") :: _)) -> ()
      | Ok _ -> Alcotest.fail "event record shape changed"
      | Error m -> Alcotest.fail m)

(* ------------------------------------------------------------------ *)
(* percentile edge cases: nearest-rank at tiny n *)

let test_percentile_edges () =
  fresh ();
  Obs.Trace_ctx.enable ();
  let h1 = Obs.Metric.histogram "t.one" in
  Obs.Metric.observe h1 7.;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "n=1 q=%.2f" q)
        7. (Obs.Metric.percentile h1 q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  let h2 = Obs.Metric.histogram "t.two" in
  Obs.Metric.observe h2 4.;
  Obs.Metric.observe h2 1.;
  Alcotest.(check (float 0.0)) "n=2 p0" 1. (Obs.Metric.percentile h2 0.0);
  Alcotest.(check (float 0.0)) "n=2 p50 takes the lower rank" 1.
    (Obs.Metric.percentile h2 0.5);
  Alcotest.(check (float 0.0)) "n=2 p90" 4. (Obs.Metric.percentile h2 0.9)

(* ------------------------------------------------------------------ *)
(* hostile metric and command names survive the JSON cycle *)

let test_metric_name_escaping () =
  fresh ();
  Obs.Trace_ctx.enable ();
  let name = "t.weird \"quoted\"\\back\nnew\tline\x01ctl" in
  Obs.Metric.count name 3;
  Obs.Metric.set_gauge (name ^ ".g") 1.5;
  let report = Obs.Report.collect ~command:"esc \"cmd\"\n" () in
  match
    Result.bind
      (Obs.Report.json_of_string
         (Obs.Report.json_to_string (Obs.Report.to_json report)))
      Obs.Report.of_json
  with
  | Error m -> Alcotest.fail ("escaping round-trip failed: " ^ m)
  | Ok r ->
    check_bool "metrics survive hostile names" true
      (r.Obs.Report.metrics = report.Obs.Report.metrics);
    Alcotest.(check string) "command survives" report.Obs.Report.command
      r.Obs.Report.command

(* ------------------------------------------------------------------ *)
(* the monotonic clock and the GC deltas behind every span *)

let test_monotonic_durations () =
  let a = Obs.Clock.now () in
  let b = Obs.Clock.now () in
  check_bool "clock never steps backwards" true (b >= a);
  fresh ();
  Obs.Trace_ctx.enable ();
  Obs.Span.with_ "tick" (fun () ->
      ignore (Sys.opaque_identity (List.init 10_000 (fun i -> float_of_int i)));
      (* flush the allocation counters: quick_stat only advances them
         at collection boundaries *)
      Gc.minor ());
  match Obs.Span.drain () with
  | [ s ] ->
    check_bool "duration non-negative" true (s.Obs.Span.dur_s >= 0.);
    check_bool "allocation visible in the span" true (s.Obs.Span.gc_minor_w > 0.)
  | _ -> Alcotest.fail "expected exactly one span"

(* ------------------------------------------------------------------ *)
(* report diff goldens: classification, gating, boundary behaviour *)

let mk_report metrics =
  {
    Obs.Report.command = "golden";
    timestamp = 0.;
    elapsed_s = 1.0;
    metrics;
    spans = [];
  }

let diff_status ?gate ?timing_gate changes key =
  match List.find_opt (fun (c : Obs.Diff.change) -> c.Obs.Diff.key = key) changes with
  | None -> Alcotest.fail ("no change entry for " ^ key)
  | Some c -> Obs.Diff.status_of ?gate ?timing_gate c

let test_diff_goldens () =
  let old_r =
    mk_report
      [
        Obs.Metric.Counter ("cache.hits", 10);
        Obs.Metric.Counter ("engine.states", 1024);
        Obs.Metric.Gauge ("engine.states_per_sec", 100.);
        Obs.Metric.Counter ("gone.key", 5);
      ]
  in
  let new_r =
    mk_report
      [
        Obs.Metric.Counter ("cache.hits", 4);
        Obs.Metric.Counter ("engine.states", 1056);
        Obs.Metric.Gauge ("engine.states_per_sec", 240.);
        Obs.Metric.Counter ("fresh.key", 1);
      ]
  in
  let changes = Obs.Diff.compare_reports ~old_report:old_r ~new_report:new_r in
  let st = diff_status ~gate:3.125 ~timing_gate:10. changes in
  (* improvement on a higher-better timing key passes *)
  check_bool "per_sec gain passes" true
    (st "engine.states_per_sec" = Obs.Diff.Pass);
  (* a hit-rate collapse on a gated deterministic key fails *)
  check_bool "hit collapse regresses" true
    (st "cache.hits" = Obs.Diff.Regression);
  (* +3.125% against a 3.125% gate sits exactly on the boundary: in *)
  check_bool "boundary delta passes" true
    (st "engine.states" = Obs.Diff.Pass);
  check_bool "vanished gated key fails" true (st "gone.key" = Obs.Diff.Missing);
  check_bool "new key is informational" true (st "fresh.key" = Obs.Diff.Added);
  (* ungated classes never fail: timing regression needs timing_gate,
     a vanished deterministic key needs gate *)
  let shrunk =
    mk_report [ Obs.Metric.Gauge ("engine.states_per_sec", 50.) ]
  in
  let ch2 = Obs.Diff.compare_reports ~old_report:old_r ~new_report:shrunk in
  check_bool "timing drop fails only when timing-gated" true
    (diff_status ~timing_gate:10. ch2 "engine.states_per_sec"
     = Obs.Diff.Regression
    && diff_status ~gate:3. ch2 "engine.states_per_sec" = Obs.Diff.Pass);
  check_bool "missing det key passes ungated" true
    (diff_status ~timing_gate:10. ch2 "gone.key" = Obs.Diff.Pass);
  (* the regression list is exactly the failing subset *)
  let failing =
    List.map
      (fun (c : Obs.Diff.change) -> c.Obs.Diff.key)
      (Obs.Diff.regressions ~gate:3.125 ~timing_gate:10. changes)
  in
  check_bool "regressions = {cache.hits, gone.key}" true
    (List.sort compare failing = [ "cache.hits"; "gone.key" ])

let test_diff_classification () =
  let c k = Obs.Diff.classify k in
  check_bool "histogram percentile of a duration is timing" true
    (c "pool.run_s.p90" = (Obs.Diff.Timing, Obs.Diff.Lower_better));
  check_bool "sample count of a timing histogram is deterministic" true
    (c "pool.run_s.n" = (Obs.Diff.Deterministic, Obs.Diff.Neutral));
  check_bool "throughput is timing, higher-better" true
    (c "bench.search.dverify_s2.states_per_sec"
    = (Obs.Diff.Timing, Obs.Diff.Higher_better));
  check_bool "state count is deterministic" true
    (c "bench.search.dverify_s2.states"
    = (Obs.Diff.Deterministic, Obs.Diff.Neutral));
  check_bool "provenance counter is deterministic" true
    (c "cache.verdict.engine" = (Obs.Diff.Deterministic, Obs.Diff.Neutral));
  check_bool "drop counters are lower-better" true
    (c "obs.events_dropped" = (Obs.Diff.Deterministic, Obs.Diff.Lower_better));
  check_bool "elapsed is timing" true
    (c "elapsed_s" = (Obs.Diff.Timing, Obs.Diff.Lower_better))

(* Counts that follow the scheduler — how many tasks each pool domain
   ran, how often a worker parked — are declared measured where the
   pool records them, travel in the report, and are gated as timing;
   every other histogram count stays a deterministic key. *)
let test_diff_measured_histograms () =
  fresh ();
  Obs.Trace_ctx.enable ();
  let pool = Par.Pool.create ~jobs:1 in
  ignore (Par.Pool.await_list pool (Par.Pool.submit_list pool [ Fun.id ]));
  Par.Pool.shutdown pool;
  let declared =
    List.filter_map
      (function
        | Obs.Metric.Histogram (name, s) -> Some (name, s.Obs.Metric.measured)
        | Obs.Metric.Counter _ | Obs.Metric.Gauge _ -> None)
      (Obs.Metric.snapshot ())
  in
  fresh ();
  check_bool "per-domain run time declared measured" true
    (List.assoc "pool.d0.run_s" declared);
  check_bool "pooled run time counts tasks" false
    (List.assoc "pool.run_s" declared);
  let hist ?(measured = false) name n =
    Obs.Metric.Histogram
      ( name,
        {
          Obs.Metric.n;
          min = 0.001;
          max = 0.5;
          mean = 0.1;
          p50 = 0.05;
          p90 = 0.2;
          p99 = 0.4;
          measured;
        } )
  in
  (* through the JSONL form, as `report diff` reads the files *)
  let report ~idle ~dwell =
    match
      Result.bind
        (Obs.Report.json_of_string
           (Obs.Report.json_to_string
              (Obs.Report.to_json
                 (mk_report
                    [
                      hist "dwell.per_tw_s" dwell;
                      hist ~measured:true "pool.d1.idle_s" idle;
                    ]))))
        Obs.Report.of_json
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let failing old_r new_r =
    List.map
      (fun (c : Obs.Diff.change) -> c.Obs.Diff.key)
      (Obs.Diff.regressions ~gate:3.
         (Obs.Diff.compare_reports ~old_report:old_r ~new_report:new_r))
  in
  Alcotest.(check (list string))
    "an idle count 30481 -> 8733 passes --gate 3" []
    (failing (report ~idle:30481 ~dwell:26) (report ~idle:8733 ~dwell:26));
  Alcotest.(check (list string))
    "a dwell row count 26 -> 13 fails --gate 3" [ "dwell.per_tw_s.n" ]
    (failing (report ~idle:30481 ~dwell:26) (report ~idle:30481 ~dwell:13))

let () =
  Alcotest.run "obs"
    [
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
        ] );
      ( "metric",
        [
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
          Alcotest.test_case "counter re-entrancy" `Quick test_counter_reentrancy;
          Alcotest.test_case "gauge max" `Quick test_gauge_max;
          Alcotest.test_case "multi-domain hammer" `Quick test_metric_hammer;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "span ring overwrites oldest" `Quick
            test_span_ring_bound;
          Alcotest.test_case "event queue drops newest" `Quick
            test_event_queue_bound;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotonic durations" `Quick test_monotonic_durations ] );
      ( "diff",
        [
          Alcotest.test_case "goldens" `Quick test_diff_goldens;
          Alcotest.test_case "classification" `Quick test_diff_classification;
          Alcotest.test_case "measured histogram counts" `Quick
            test_diff_measured_histograms;
        ] );
      ( "disabled",
        [ Alcotest.test_case "no-op everywhere" `Quick test_disabled_noop ] );
      ( "report",
        [
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "json parser" `Quick test_json_parser;
          Alcotest.test_case "hostile name escaping" `Quick
            test_metric_name_escaping;
        ] );
      ( "integration",
        [ Alcotest.test_case "engine metrics" `Quick test_engine_metrics ] );
    ]
