(* cpsdim — control-aware dimensioning of TT slots for multi-resource
   CPS, after Roy et al., DAC 2019.

   Subcommands: tables, verify, map, simulate, sweep, bus. *)

let app_of_name ?cache name =
  let a = Casestudy.find name in
  Core.App.make ?cache ~name:a.Casestudy.name ~plant:a.Casestudy.plant
    ~gains:a.Casestudy.gains ~r:a.Casestudy.r ~j_star:a.Casestudy.j_star ()

(* dwell tables are computed inside App.make, so this is the CLI's
   "dwell-table" phase; resolve names one at a time so an unknown one
   can be reported by name instead of a bare Not_found *)
let parse_apps ?pcache names =
  Obs.Span.with_ "dwell-tables" @@ fun () ->
  let cache = Option.map Core.Pcache.dwell_cache pcache in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
      match app_of_name ?cache name with
      | app -> go (app :: acc) rest
      | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown application %S (case study provides C1..C6)"
                name)))
  in
  go [] names

(* --cache PATH (or CPSDIM_CACHE): open the persistent verification
   store around the run; a refused file (not a store, IO error) aborts
   rather than silently running uncached *)
let with_pcache cache f =
  match cache with
  | None -> f None
  | Some path ->
    (match Core.Pcache.open_ ~path with
     | Error m -> Printf.eprintf "cpsdim: --cache %s: %s\n" path m; 1
     | Ok pc ->
       Fun.protect
         ~finally:(fun () -> Core.Pcache.close pc)
         (fun () -> f (Some pc)))

let mapping_cache_of = function
  | Some pc -> Core.Pcache.mapping_cache pc
  | None -> Core.Mapping.create_cache ()

(* the reference transport is silent when every fact holds, so --bus
   flexray output stays byte-identical to the pre-seam CLI *)
let bus_report_noteworthy bus (r : Cosim.Bus_check.result) =
  (not (String.equal (Bus.configured_name bus) "flexray"))
  || (not (Cosim.Bus_check.facts_hold r))
  || r.Cosim.Bus_check.lost_tx > 0

(* ------------------------------------------------------------------ *)
(* tables *)

let tables_cmd_run cache names =
  let names = if names = [] then [ "C1"; "C2"; "C3"; "C4"; "C5"; "C6" ] else names in
  with_pcache cache @@ fun pcache ->
  match parse_apps ?pcache names with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok apps ->
    List.iter (Format.printf "%a@." Core.App.pp_tables) apps;
    0

(* ------------------------------------------------------------------ *)
(* verify *)

(* exit codes: 0 = safe, 2 = unsafe, 3 = undetermined (budget ran out) *)
let verify_cmd_run engine bound deadline cache names =
  with_pcache cache @@ fun pcache ->
  match parse_apps ?pcache names with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok [] -> prerr_endline "verify: give at least one application"; 1
  | Ok apps ->
    let specs = Core.Mapping.specs_of_group apps in
    (* persist definitive verdicts so later map/stress/verify runs skip
       the engine.  Exact engines record both polarities; the bounded
       acceleration only its counterexamples (bounded-Safe is an
       under-approximation); Undetermined is a budget artifact and is
       never recorded. *)
    let record v = Option.iter (fun pc -> Core.Pcache.record_verdict pc specs v) pcache in
    Obs.Span.with_ "model-check" @@ fun () ->
    let exit_code (r : Core.Dverify.result) =
      match r.Core.Dverify.verdict with
      | Core.Dverify.Safe -> 0
      | Core.Dverify.Unsafe _ -> 2
      | Core.Dverify.Undetermined _ -> 3
    in
    (* the engine's depth-first witness is real but can run for hundreds
       of samples; print the breadth-first reference's shortest one
       instead, unless the budget cuts the reference short *)
    let shortest ?instances (r : Core.Dverify.result) =
      match r.Core.Dverify.verdict with
      | Core.Dverify.Safe | Core.Dverify.Undetermined _ -> r
      | Core.Dverify.Unsafe _ -> (
        match Core.Dverify.reference ?instances ?deadline specs with
        | { Core.Dverify.verdict = Core.Dverify.Unsafe _; _ } as ref_r -> ref_r
        | _ -> r)
    in
    (match engine with
     | `Discrete ->
       let r = shortest (Core.Dverify.verify ?deadline specs) in
       (match r.Core.Dverify.verdict with
        | Core.Dverify.Safe -> record `Safe
        | Core.Dverify.Unsafe _ -> record `Unsafe
        | Core.Dverify.Undetermined _ -> ());
       Format.printf "%a@.states=%d transitions=%d elapsed=%.2fs@."
         (Core.Dverify.pp_verdict specs) r.Core.Dverify.verdict
         r.Core.Dverify.stats.Core.Dverify.states
         r.Core.Dverify.stats.Core.Dverify.transitions
         r.Core.Dverify.stats.Core.Dverify.elapsed;
       (match r.Core.Dverify.verdict with
        | Core.Dverify.Unsafe ce ->
          Format.printf "%a@." (Core.Dverify.pp_counterexample specs) ce
        | Core.Dverify.Safe | Core.Dverify.Undetermined _ -> ());
       exit_code r
     | `Bounded ->
       let r =
         shortest ~instances:bound
           (Core.Dverify.verify_bounded ?deadline ~instances:bound specs)
       in
       (match r.Core.Dverify.verdict with
        | Core.Dverify.Unsafe _ -> record `Unsafe
        | Core.Dverify.Safe | Core.Dverify.Undetermined _ -> ());
       Format.printf "%a (bounded, %d instances/app)@.states=%d elapsed=%.2fs@."
         (Core.Dverify.pp_verdict specs) r.Core.Dverify.verdict bound
         r.Core.Dverify.stats.Core.Dverify.states
         r.Core.Dverify.stats.Core.Dverify.elapsed;
       exit_code r
     | `Ta ->
       let r = Core.Ta_model.verify ?deadline specs in
       (match r.Core.Ta_model.outcome with
        | `Undetermined reason ->
          Format.printf "undetermined: %a (%d symbolic states)@."
            Ta.Reach.pp_budget_reason reason
            r.Core.Ta_model.stats.Ta.Reach.states;
          3
        | (`Safe | `Unsafe) as o ->
          record (o :> Core.Mapping.verdict);
          Format.printf "%s@.symbolic states=%d elapsed=%.2fs@."
            (if o = `Safe then "safe: Error location unreachable"
             else "unsafe: Error location reachable")
            r.Core.Ta_model.stats.Ta.Reach.states
            r.Core.Ta_model.stats.Ta.Reach.elapsed;
          if o = `Safe then 0 else 2))

(* ------------------------------------------------------------------ *)
(* map *)

let map_cmd_run with_baseline optimal cache =
  with_pcache cache @@ fun pcache ->
  let dcache = Option.map Core.Pcache.dwell_cache pcache in
  let apps =
    Obs.Span.with_ "dwell-tables" @@ fun () ->
    List.map
      (fun (a : Casestudy.app) -> app_of_name ?cache:dcache a.Casestudy.name)
      Casestudy.all
  in
  let cache = mapping_cache_of pcache in
  let outcome =
    if optimal then Core.Mapping.optimal ~cache apps
    else Core.Mapping.first_fit ~cache apps
  in
  Format.printf "%a@." Core.Mapping.pp outcome;
  if with_baseline then begin
    let specs =
      List.mapi
        (fun i (a : Casestudy.app) ->
          let bp =
            Core.Baseline_params.compute a.Casestudy.plant a.Casestudy.gains
              ~j_star:a.Casestudy.j_star
          in
          Core.Baseline_params.to_spec ~id:i ~name:a.Casestudy.name
            ~r:a.Casestudy.r bp)
        Casestudy.all
    in
    let sorted =
      List.map
        (fun (a : Core.App.t) ->
          List.find (fun s -> String.equal s.Sched.Baseline.name a.Core.App.name) specs)
        (Core.Mapping.sort_order apps)
    in
    List.iter
      (fun (strategy, label) ->
        let slots = Sched.Baseline.first_fit strategy sorted in
        Format.printf "baseline (%s): %d slots: %s@." label (List.length slots)
          (String.concat " | "
             (List.map
                (fun slot ->
                  String.concat ","
                    (List.map (fun s -> s.Sched.Baseline.name) slot))
                slots)))
      [ (Sched.Baseline.Dm, "non-preemptive DM"); (Sched.Baseline.Delayed, "delayed requests") ]
  end;
  0

(* ------------------------------------------------------------------ *)
(* simulate *)

let write_csv_opt csv contents =
  match csv with
  | None -> 0
  | Some path ->
    (match Cosim.Export.write_file ~path contents with
     | Ok () -> Format.printf "wrote %s@." path; 0
     | Error m -> prerr_endline m; 1)

let simulate_cmd_run names disturbances horizon stride csv faults seed monitor
    bus =
  match parse_apps names with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok [] -> prerr_endline "simulate: give at least one application"; 1
  | Ok apps ->
    (match
       List.map
         (fun spec ->
           match String.split_on_char ':' spec with
           | [ k; name ] -> (int_of_string k, name)
           | _ -> failwith "disturbance must be SAMPLE:APP")
         disturbances
     with
     | exception _ -> prerr_endline "simulate: bad -d (use SAMPLE:APP)"; 1
     | ds ->
       let plan =
         match faults with
         | None -> Ok None
         | Some s ->
           Result.bind (Faults.Spec.parse s) (fun spec ->
               let app_rs =
                 Array.of_list
                   (List.map
                      (fun (a : Core.App.t) -> (a.Core.App.name, a.Core.App.r))
                      apps)
               in
               Result.map Option.some
                 (Faults.Plan.materialize ~spec ~seed:(Int64.of_int seed)
                    ~apps:app_rs ~horizon))
       in
       (match plan with
        | Error m -> Printf.eprintf "simulate: --faults: %s\n" m; 1
        | Ok plan ->
          let scenario = Cosim.Scenario.make ~apps ~disturbances:ds ~horizon in
          let trace, summary =
            Cosim.Engine.run_with_faults ?plan scenario
          in
          let bus_result =
            match bus with
            | None -> Ok None
            | Some b ->
              (match Cosim.Engine.replay_on_bus ~bus:b ?plan trace with
               | r -> Ok (Some r)
               | exception Invalid_argument m -> Error m)
          in
          match bus_result with
          | Error m -> Printf.eprintf "simulate: --bus: %s\n" m; 1
          | Ok bus_result ->
          let csv_rc = write_csv_opt csv (Cosim.Export.trace_csv trace) in
          if csv_rc <> 0 then csv_rc
          else begin
            List.iter print_endline (Cosim.Trace.to_rows trace ~stride);
            print_newline ();
            List.iter print_endline (Cosim.Trace.to_gantt trace);
            if plan <> None then
              Format.printf
                "faults: %d blackout sample(s), %d ET loss(es), %d sensor \
                 drop(s), %d eviction(s), %d suppressed arrival(s)@."
                summary.Cosim.Engine.blackout_samples
                summary.Cosim.Engine.et_losses
                summary.Cosim.Engine.sensor_drops
                (List.length summary.Cosim.Engine.denied)
                (List.length summary.Cosim.Engine.suppressed);
            Format.printf "requirements met: %b@."
              (Cosim.Trace.meets_requirements trace apps);
            List.iter
              (fun (sample, id) ->
                match Cosim.Trace.settling_after trace ~id ~sample with
                | Some j ->
                  Format.printf "%s disturbed at %d: J = %d samples (%.2fs)@."
                    trace.Cosim.Trace.names.(id) sample j
                    (float_of_int j *. trace.Cosim.Trace.h)
                | None ->
                  Format.printf "%s disturbed at %d: no settling in horizon@."
                    trace.Cosim.Trace.names.(id) sample)
              trace.Cosim.Trace.disturbances;
            (match (bus, bus_result) with
             | Some b, Some r when bus_report_noteworthy b r ->
               Format.printf "%a@." Cosim.Bus_check.pp r
             | _ -> ());
            if not monitor then 0
            else begin
              let report =
                Cosim.Monitor.check ~summary ?bus:bus_result ~apps trace
              in
              Format.printf "@.%a@." Cosim.Monitor.pp report;
              if report.Cosim.Monitor.ok then 0 else 2
            end
          end))

(* ------------------------------------------------------------------ *)
(* stress *)

(* Fault-injection campaign over the verified slot mapping.  Exit code
   reports infrastructure failures only: finding guarantee violations
   under injected faults is the purpose, not an error.  The output is a
   pure function of (spec, seed, runs, horizon) — no wall-clock
   quantities are printed — so two runs with the same arguments must be
   byte-identical. *)
let stress_cmd_run names spec seed runs horizon cache bus =
  let names =
    if names = [] then [ "C1"; "C2"; "C3"; "C4"; "C5"; "C6" ] else names
  in
  with_pcache cache @@ fun pcache ->
  match parse_apps ?pcache names with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok apps ->
    (match Faults.Spec.parse spec with
     | Error m -> Printf.eprintf "stress: --spec: %s\n" m; 1
     | Ok spec ->
       let mapping = Core.Mapping.first_fit ~cache:(mapping_cache_of pcache) apps in
       Format.printf "%a@.@." Core.Mapping.pp mapping;
       let slots =
         List.map
           (fun s -> s.Core.Mapping.apps)
           mapping.Core.Mapping.slots
       in
       (match
          Cosim.Campaign.run ?bus ~spec ~seed:(Int64.of_int seed) ~runs
            ~horizon slots
        with
        | Error m -> Printf.eprintf "stress: %s\n" m; 1
        | Ok summary ->
          Format.printf "%a@." Cosim.Campaign.pp summary;
          0))

(* ------------------------------------------------------------------ *)
(* sweep *)

let sweep_cmd_run name t_w_max t_dw_max csv bus =
  match parse_apps [ name ] with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok [ app ] ->
    let surface =
      Core.Dwell.surface app.Core.App.plant app.Core.App.gains ~t_w_max ~t_dw_max
    in
    let csv_rc =
      write_csv_opt csv
        (Cosim.Export.surface_csv surface ~h:app.Core.App.plant.Control.Plant.h)
    in
    if csv_rc <> 0 then csv_rc
    else begin
      Format.printf "Tw Tdw J(samples)@.";
      List.iter
        (fun (t_w, t_dw, j) ->
          Format.printf "%2d %3d %s@." t_w t_dw
            (match j with Some j -> string_of_int j | None -> "-"))
        surface;
      (* an explicit --bus annotates the surface with the transport the
         dwell points would ride on: its cycle must out-pace h for the
         one-sample story to make sense at every (Tw, Tdw) *)
      Option.iter
        (fun b ->
          let h_us =
            int_of_float ((app.Core.App.plant.Control.Plant.h *. 1e6) +. 0.5)
          in
          Format.printf "bus (%s): %s; %d cycle(s) per %d us sample@."
            (Bus.configured_name b) (Bus.info b)
            (h_us / Int.max 1 (Bus.cycle_us b))
            h_us)
        bus;
      0
    end
  | Ok _ -> 1

(* ------------------------------------------------------------------ *)
(* bus *)

(* timing sanity checks for one transport: its default configuration,
   the WCRT of a control-frame-sized contended message under five
   interferers of twice that size, and whether the one-sample-delay
   assumption survives at the case study's h = 20 ms *)
let bus_info_run b =
  Format.printf "%s@." (Bus.info b);
  let size = Bus.control_frame_size b in
  let flow = 6 in
  let hp = List.init 5 (fun _ -> (2 * size, 5 * Bus.cycle_us b)) in
  (match Bus.wcrt_us b ~flow ~size ~hp with
   | Some w ->
     Format.printf
       "control frame (flow %d, size %d) under 5 interferers: WCRT = %d us@."
       flow size w;
     Format.printf "one-sample-delay assumption at h = 20 ms: %b@."
       (w <= 20_000)
   | None -> Format.printf "frame can be starved@.");
  0

let bus_list_run () =
  List.iter
    (fun backend ->
      Format.printf "%-10s %s@." (Bus.name backend)
        (Bus.info (Bus.default backend)))
    Cosim.Bus_check.backends;
  0

(* ------------------------------------------------------------------ *)
(* design *)

let design_cmd_run name j_star require_cqlf =
  match parse_apps [ name ] with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok [ app ] ->
    let plant = app.Core.App.plant in
    let j_star = Option.value ~default:app.Core.App.j_star j_star in
    let outcome = Control.Design.search ~require_cqlf plant ~j_star in
    List.iter
      (fun (c : Control.Design.candidate) ->
        Format.printf "kt rho=%.2f  ke %-14s  JT=%-4s JE=%-4s cqlf=%-5b %s@."
          c.Control.Design.kt_radius c.Control.Design.ke_source
          (match c.Control.Design.jt with Some j -> string_of_int j | None -> "-")
          (match c.Control.Design.je with Some j -> string_of_int j | None -> "-")
          c.Control.Design.switching_stable
          (match c.Control.Design.verdict with
           | `Accepted -> "ACCEPTED"
           | `Rejected r -> r))
      outcome.Control.Design.trace;
    (match outcome.Control.Design.gains with
     | Some g ->
       Format.printf "@.K_T = %a@.K_E = %a@." Linalg.Vec.pp g.Control.Switched.kt
         Linalg.Vec.pp g.Control.Switched.ke;
       (match Core.Dwell.compute plant g ~j_star with
        | t -> Format.printf "%a@." Core.Dwell.pp t; 0
        | exception Core.Dwell.Infeasible m ->
          Format.printf "dimensioning infeasible: %s@." m; 1)
     | None ->
       Format.printf "no admissible gain pair found@.";
       1)
  | Ok _ -> 1

(* ------------------------------------------------------------------ *)
(* fleet *)

let fleet_cmd_run count seed =
  let params = { Core.Fleet.default_params with count; seed } in
  let apps = Core.Fleet.generate ~params () in
  List.iter (fun a -> print_endline (Core.Fleet.describe a)) apps;
  Format.printf "%a@." Core.Mapping.pp (Core.Mapping.first_fit apps);
  0

(* ------------------------------------------------------------------ *)
(* margins *)

let margins_cmd_run names =
  match parse_apps names with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok [] -> prerr_endline "margins: give at least one application"; 1
  | Ok apps ->
    let report = Core.Margin.analyse apps in
    Format.printf "%a@." Core.Margin.pp report;
    if report.Core.Margin.safe then 0 else 2

(* ------------------------------------------------------------------ *)
(* uppaal *)

let uppaal_cmd_run out names =
  match parse_apps names with
  | Error (`Msg m) -> prerr_endline m; 1
  | Ok [] -> prerr_endline "uppaal: give at least one application"; 1
  | Ok apps ->
    let specs = Core.Mapping.specs_of_group apps in
    (match out with
     | None -> print_string (Core.Uppaal_export.model specs); 0
     | Some basename ->
       (match Core.Uppaal_export.write ~dir:(Filename.dirname basename)
                ~basename:(Filename.basename basename) specs
        with
        | Ok path -> Format.printf "wrote %s (+ .q)@." path; 0
        | Error m -> prerr_endline m; 1))

(* ------------------------------------------------------------------ *)
(* cache *)

let cache_stats_run path =
  match Store.peek ~path with
  | Error m -> Printf.eprintf "cpsdim: cache stats: %s\n" m; 1
  | Ok (salt, records) ->
    let bytes = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
    Printf.printf "store:   %s\nsalt:    %s (%s)\nrecords: %d\nbytes:   %d\n"
      path salt
      (if String.equal salt Core.Pcache.engine_salt then "current"
       else "STALE; current is " ^ Core.Pcache.engine_salt)
      records bytes;
    0

let cache_clear_run path =
  match Core.Pcache.open_ ~path with
  | Error m -> Printf.eprintf "cpsdim: cache clear: %s\n" m; 1
  | Ok pc ->
    Store.clear (Core.Pcache.store pc);
    Core.Pcache.close pc;
    Printf.printf "cleared %s\n" path;
    0

(* ------------------------------------------------------------------ *)
(* serve *)

(* Resident/batch mode: requests in, responses out, one warm cache pair
   across all of them.  Exit code reports transport failures only — a
   failing request gets a structured error response, not an exit. *)
let serve_cmd_run socket jobs cache =
  Par.Pool.set_default_jobs jobs;
  with_pcache cache @@ fun pcache ->
  Option.iter
    (fun pc ->
      if Core.Pcache.read_only pc then
        Printf.eprintf
          "cpsdim serve: another process holds the cache's writer lock; \
           running read-only (verdicts computed here are not persisted)\n%!")
    pcache;
  let svc = Serve.Service.create ?pcache () in
  match socket with
  | None -> Serve.Daemon.run_stdio svc; 0
  | Some path ->
    (match Serve.Daemon.run_socket svc ~path with
     | Ok () -> 0
     | Error m -> Printf.eprintf "cpsdim serve: %s\n" m; 1)

(* ------------------------------------------------------------------ *)
(* report *)

let report_show_run path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> prerr_endline m; 1
  | contents ->
    let runs =
      List.filter
        (fun l -> String.trim l <> "")
        (String.split_on_char '\n' contents)
    in
    (match List.rev runs with
     | [] -> Printf.eprintf "report: %s holds no runs\n" path; 1
     | last :: _ ->
       (match
          Result.bind (Obs.Report.json_of_string last) Obs.Report.of_json
        with
        | Error m -> Printf.eprintf "report: %s: %s\n" path m; 1
        | Ok r ->
          Format.printf "%a@." Obs.Report.pp r;
          Printf.printf "(%d run(s) in %s; showing the most recent)\n"
            (List.length runs) path;
          0))

(* the most recent report in a file that is either a single-line
   snapshot (BENCH_*.json) or a multi-run JSONL log *)
let read_last_report path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | contents ->
    (match
       List.rev
         (List.filter
            (fun l -> String.trim l <> "")
            (String.split_on_char '\n' contents))
     with
     | [] -> Error (path ^ " holds no runs")
     | last :: _ ->
       Result.map_error
         (fun m -> path ^ ": " ^ m)
         (Result.bind (Obs.Report.json_of_string last) Obs.Report.of_json))

(* exit codes: 0 = within tolerances, 1 = bad input, 2 = regression *)
let report_diff_run gate timing_gate old_path new_path =
  match (read_last_report old_path, read_last_report new_path) with
  | Error m, _ | _, Error m -> Printf.eprintf "report diff: %s\n" m; 1
  | Ok old_report, Ok new_report ->
    let changes = Obs.Diff.compare_reports ~old_report ~new_report in
    let failing = Obs.Diff.regressions ?gate ?timing_gate changes in
    let added =
      List.length (List.filter (fun c -> c.Obs.Diff.old_v = None) changes)
    in
    List.iter
      (fun c ->
        let tag =
          match Obs.Diff.status_of ?gate ?timing_gate c with
          | Obs.Diff.Missing -> "MISSING    "
          | Obs.Diff.Regression | Obs.Diff.Pass | Obs.Diff.Added ->
            "REGRESSION "
        in
        Format.printf "%s%a@." tag Obs.Diff.pp_change c)
      failing;
    let gate_desc which = function
      | Some g -> Printf.sprintf "%s ±%g%%" which g
      | None -> Printf.sprintf "%s ungated" which
    in
    Format.printf "report diff: %d key(s) compared (%d new), %d failing (%s, %s)@."
      (List.length changes) added (List.length failing)
      (gate_desc "deterministic" gate)
      (gate_desc "timing" timing_gate);
    if failing = [] then 0 else 2

let report_cmd_run gate timing_gate args =
  match args with
  | [] -> report_show_run "cpsdim-metrics.jsonl"
  | [ path ] -> report_show_run path
  | [ "diff"; old_path; new_path ] ->
    report_diff_run gate timing_gate old_path new_path
  | "diff" :: _ ->
    prerr_endline
      "report diff: usage: cpsdim report diff OLD NEW [--gate PCT] \
       [--timing-gate PCT]";
    1
  | _ ->
    prerr_endline
      "report: usage: cpsdim report [PATH] | cpsdim report diff OLD NEW";
    1

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing *)

open Cmdliner

(* Every subcommand takes --metrics[=PATH] / --trace; when either is
   given the run executes under a root span, and the finished report
   goes to the JSONL sink and/or the stderr summary. *)

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "cpsdim-metrics.jsonl") (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "Collect metrics and timing spans, appending one JSON line per run \
           to $(docv) (default cpsdim-metrics.jsonl; see 'cpsdim report').")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Collect metrics and timing spans and print a summary to stderr.")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"PATH"
        ~doc:
          "Stream structured observability events (search heartbeats, pool \
           task lifecycles, cache provenance), appending one JSON line per \
           event to $(docv) when the run finishes.")

let write_events path =
  let evs = Obs.Event.drain () in
  let dropped = Obs.Event.dropped () in
  try
    Out_channel.with_open_gen
      [ Open_append; Open_creat; Open_text ]
      0o644 path
      (fun oc ->
        List.iter
          (fun ev ->
            Out_channel.output_string oc
              (Obs.Report.json_to_string (Obs.Event.to_json ev) ^ "\n"))
          evs;
        (* make truncation visible in the stream itself *)
        if dropped > 0 then
          Out_channel.output_string oc
            (Printf.sprintf "{\"ev\":\"obs.events_dropped\",\"n\":%d}\n" dropped))
  with Sys_error _ -> ()

let obs_wrap command metrics trace events f =
  if metrics = None && not trace && events = None then f ()
  else begin
    (* --events alone leaves the metric/span machinery off: the event
       stream has its own switch, and enabling both only for their
       respective sinks keeps each flag's overhead to what it pays
       for. *)
    if metrics <> None || trace then Obs.Trace_ctx.enable ();
    if events <> None then Obs.Event.enable ();
    let root = Obs.Span.start command in
    Fun.protect
      ~finally:(fun () ->
        Obs.Span.finish root;
        Option.iter write_events events;
        if metrics <> None || trace then begin
          let report = Obs.Report.collect ~command () in
          Option.iter
            (fun path -> Obs.Sink.emit (Obs.Sink.jsonl ~path) report)
            metrics;
          if trace then Obs.Sink.emit Obs.Sink.stderr_summary report
        end)
      f
  end

let with_obs command thunk =
  Term.(
    const (fun metrics trace events f -> obs_wrap command metrics trace events f)
    $ metrics_arg $ trace_arg $ events_arg $ thunk)

let names_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"APP" ~doc:"Case-study application names (C1..C6).")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "CPSDIM_CACHE")
        ~doc:
          "Persistent verification cache: verdicts and dwell tables are \
           reloaded from (and appended to) the store at $(docv), so repeated \
           runs skip the engine for unchanged groups.  The file is salted \
           with the engine version and invalidated automatically when it \
           goes stale; see 'cpsdim cache'.  Results are byte-identical with \
           or without a (warm or cold) cache.")

let tables_cmd =
  Cmd.v (Cmd.info "tables" ~doc:"Print the dwell-time tables (Table 1)")
    (with_obs "tables"
       Term.(
         const (fun cache names () -> tables_cmd_run cache names)
         $ cache_arg $ names_arg))

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("discrete", `Discrete); ("bounded", `Bounded); ("ta", `Ta) ]) `Discrete
    & info [ "e"; "engine" ] ~doc:"Verification engine: discrete (exact), bounded, or ta (zone-based).")

let bound_arg =
  Arg.(value & opt int 2 & info [ "k"; "instances" ] ~doc:"Disturbance instances per app for -e bounded.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the search; when it runs out the verdict is \
           explicitly undetermined (exit code 3) instead of safe/unsafe.")

let verify_cmd =
  Cmd.v (Cmd.info "verify" ~doc:"Model-check a slot group")
    (with_obs "verify"
       Term.(
         const (fun engine bound deadline cache names () ->
             verify_cmd_run engine bound deadline cache names)
         $ engine_arg $ bound_arg $ deadline_arg $ cache_arg $ names_arg))

let baseline_arg =
  Arg.(value & flag & info [ "b"; "baseline" ] ~doc:"Also run the DATE'12 baseline packing.")

let optimal_arg =
  Arg.(value & flag & info [ "optimal" ] ~doc:"Exact minimum-slot partition instead of first-fit.")

let map_cmd =
  Cmd.v (Cmd.info "map" ~doc:"Slot mapping of the case study (first-fit or exact)")
    (with_obs "map"
       Term.(
         const (fun baseline optimal cache () ->
             map_cmd_run baseline optimal cache)
         $ baseline_arg $ optimal_arg $ cache_arg))

let disturbances_arg =
  Arg.(value & opt_all string [] & info [ "d"; "disturb" ] ~docv:"SAMPLE:APP" ~doc:"Disturbance arrival, e.g. -d 0:C1.")

let horizon_arg =
  Arg.(value & opt int 60 & info [ "horizon" ] ~doc:"Samples to simulate.")

let stride_arg =
  Arg.(value & opt int 1 & info [ "stride" ] ~doc:"Print every Nth sample.")

let csv_arg =
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the data as CSV.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fault-injection spec: ';'-separated clauses among \
           blackout:A-B, blackout:p=P[,len=L], loss:APP@K, \
           loss:APP@p=P, drop:APP@K, drop:APP@p=P, \
           burst:APP@S[xN].  Random clauses draw from --seed.")

let sim_seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed for random fault clauses.")

let monitor_arg =
  Arg.(
    value & flag
    & info [ "monitor" ]
        ~doc:
          "Check the trace against the verified guarantees (J*, T*_w, dwell \
           tables); any violation exits 2.")

(* every built-in transport at its default configuration, by name; an
   unknown name is a usage error listing the known ones.  Values print
   by name because a configured backend holds functions, which the
   enum's own printer would have to compare *)
let bus_conv =
  let named =
    Arg.enum
      (List.map (fun b -> (Bus.name b, Bus.default b)) Cosim.Bus_check.backends)
  in
  Arg.conv
    ( Arg.conv_parser named,
      fun ppf b -> Format.pp_print_string ppf (Bus.configured_name b) )

let bus_arg =
  Arg.(
    value
    & opt (some bus_conv) None
    & info [ "bus" ] ~docv:"BACKEND"
        ~doc:
          "Replay the run's traffic on a transport backend (see 'cpsdim bus \
           list') and check the TT-deterministic / ET-one-sample facts the \
           dimensioning rests on.  The reference backend (flexray) stays \
           silent when every fact holds; without $(docv) no replay happens \
           at all.")

let simulate_cmd =
  Cmd.v (Cmd.info "simulate" ~doc:"Co-simulate a slot group")
    (with_obs "simulate"
       Term.(
         const (fun names ds horizon stride csv faults seed monitor bus () ->
             simulate_cmd_run names ds horizon stride csv faults seed monitor
               bus)
         $ names_arg $ disturbances_arg $ horizon_arg $ stride_arg $ csv_arg
         $ faults_arg $ sim_seed_arg $ monitor_arg $ bus_arg))

let stress_spec_arg =
  Arg.(
    value
    & opt string "blackout:p=0.02,len=4"
    & info [ "spec" ] ~docv:"SPEC"
        ~doc:"Fault spec applied to every run (same grammar as simulate --faults).")

let runs_arg =
  Arg.(value & opt int 20 & info [ "runs" ] ~doc:"Monitored runs per slot group.")

let stress_horizon_arg =
  Arg.(value & opt int 600 & info [ "horizon" ] ~doc:"Samples per run.")

let stress_cmd =
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Seeded fault-injection campaign over the first-fit mapping: \
          randomized admissible disturbances plus injected faults, every run \
          checked by the guarantee monitor")
    (with_obs "stress"
       Term.(
         const (fun names spec seed runs horizon cache bus () ->
             stress_cmd_run names spec seed runs horizon cache bus)
         $ names_arg $ stress_spec_arg $ sim_seed_arg $ runs_arg
         $ stress_horizon_arg $ cache_arg $ bus_arg))

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc:"Application name.")

let tw_arg = Arg.(value & opt int 10 & info [ "tw" ] ~doc:"Maximum wait to sweep.")
let tdw_arg = Arg.(value & opt int 10 & info [ "tdw" ] ~doc:"Maximum dwell to sweep.")

let sweep_cmd =
  Cmd.v (Cmd.info "sweep" ~doc:"Settling-time surface J(Tw, Tdw) (Fig. 3)")
    (with_obs "sweep"
       Term.(
         const (fun name tw tdw csv bus () -> sweep_cmd_run name tw tdw csv bus)
         $ name_arg $ tw_arg $ tdw_arg $ csv_arg $ bus_arg))

let bus_name_arg =
  Arg.(
    value
    & pos 0 bus_conv Flexray.Backend.default
    & info [] ~docv:"BACKEND"
        ~doc:"Transport backend name (default flexray; see 'cpsdim bus list').")

let bus_cmd =
  let info_cmd =
    Cmd.v
      (Cmd.info "info"
         ~doc:
           "Timing sanity checks for one transport backend (the former \
            'cpsdim flexray', generalised)")
      (with_obs "bus-info"
         Term.(const (fun name () -> bus_info_run name) $ bus_name_arg))
  in
  let list_cmd =
    Cmd.v
      (Cmd.info "list" ~doc:"List the registered transport backends")
      (with_obs "bus-list" Term.(const (fun () -> bus_list_run ())))
  in
  Cmd.group
    (Cmd.info "bus" ~doc:"Inspect the transport backends behind --bus")
    [ info_cmd; list_cmd ]

let jstar_arg =
  Arg.(value & opt (some int) None & info [ "j" ] ~doc:"Settling budget in samples (defaults to the app's J*).")

let cqlf_arg =
  Arg.(value & flag & info [ "require-cqlf" ] ~doc:"Reject gain pairs without a common Lyapunov certificate.")

let design_cmd =
  Cmd.v (Cmd.info "design" ~doc:"Synthesise a switching gain pair for an app's plant")
    (with_obs "design"
       Term.(
         const (fun name jstar cqlf () -> design_cmd_run name jstar cqlf)
         $ name_arg $ jstar_arg $ cqlf_arg))

let count_arg =
  Arg.(value & opt int 6 & info [ "n" ] ~doc:"Fleet size.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generation seed.")

let fleet_cmd =
  Cmd.v (Cmd.info "fleet" ~doc:"Generate a synthetic fleet and map it to slots")
    (with_obs "fleet"
       Term.(
         const (fun count seed () -> fleet_cmd_run count seed)
         $ count_arg $ seed_arg))

let out_arg =
  Arg.(value & opt (some string) None & info [ "o" ] ~docv:"PATH" ~doc:"Write PATH.xml and PATH.q instead of stdout.")

let uppaal_cmd =
  Cmd.v (Cmd.info "uppaal" ~doc:"Export a slot group as an UPPAAL model")
    (with_obs "uppaal"
       Term.(
         const (fun out names () -> uppaal_cmd_run out names)
         $ out_arg $ names_arg))

let margins_cmd =
  Cmd.v (Cmd.info "margins" ~doc:"Worst-case waits and settling margins of a verified group")
    (with_obs "margins"
       Term.(const (fun names () -> margins_cmd_run names) $ names_arg))

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix domain socket at $(docv) (clients served one at \
           a time, caches staying warm across connections) instead of \
           answering stdin on stdout.")

let jobs_arg =
  let positive =
    Arg.conv'
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | Some _ | None ->
            Error (Printf.sprintf "expected a positive integer, got %S" s)),
        Format.pp_print_int )
  in
  Arg.(
    value & opt positive 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Domains to spread a request's distinct slot groups across (one \
           whole verification per task).  Responses are byte-identical at \
           any $(docv).")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Resident dimensioning service: read verify/map/dwell requests (one \
          JSON object per line) from stdin or a Unix socket and answer each \
          on the same channel, re-verifying only groups whose fingerprint \
          has not been answered before")
    (with_obs "serve"
       Term.(
         const (fun socket jobs cache () -> serve_cmd_run socket jobs cache)
         $ socket_arg $ jobs_arg $ cache_arg))

let report_args =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"ARG"
        ~doc:
          "Either a JSONL file written by --metrics (default \
           cpsdim-metrics.jsonl), or $(b,diff) $(i,OLD) $(i,NEW) to compare \
           two report files.")

let gate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "gate" ] ~docv:"PCT"
        ~doc:
          "With $(b,diff): fail (exit 2) when a deterministic metric (state \
           counts, cache hit mixes, sample counts) moved against its \
           direction by more than $(docv) percent, or vanished.")

let timing_gate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timing-gate" ] ~docv:"PCT"
        ~doc:
          "With $(b,diff): same gate for timing metrics (durations, \
           states/sec, speedups).  Left off by default so wall-clock noise \
           between machines cannot fail a comparison.")

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Pretty-print the most recent JSONL metrics run, or diff two \
          report files with regression gates")
    Term.(const report_cmd_run $ gate_arg $ timing_gate_arg $ report_args)

let cache_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PATH" ~doc:"Persistent cache file (see --cache).")

let cache_cmd =
  let stats =
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Report a store's salt (flagging staleness against the current \
            engine), record count and size, without modifying the file.")
      Term.(const cache_stats_run $ cache_path_arg)
  in
  let clear =
    Cmd.v
      (Cmd.info "clear" ~doc:"Drop every record and rewrite the store empty.")
      Term.(const cache_clear_run $ cache_path_arg)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect or clear a persistent verification cache")
    [ stats; clear ]

let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "cpsdim" ~version:"1.0.0"
      ~doc:"Tighter dimensioning of TT slots with control performance guarantees"
  in
  exit (Cmd.eval' (Cmd.group ~default info [ tables_cmd; verify_cmd; map_cmd; simulate_cmd; stress_cmd; sweep_cmd; bus_cmd; design_cmd; fleet_cmd; uppaal_cmd; margins_cmd; serve_cmd; report_cmd; cache_cmd ]))
