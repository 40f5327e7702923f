type slot_summary = {
  apps : string list;
  runs : int;
  clean_runs : int;
  j_star : int;
  wait : int;
  dwell : int;
  suppressed : int;
  injected : int;
  blackout_samples : int;
  et_losses : int;
  sensor_drops : int;
  bus_lost_tx : int;
  bus_undelivered : int;
  bus_overruns : int;
}

type summary = {
  seed : int64;
  spec : Faults.Spec.t;
  horizon : int;
  slots : slot_summary list;
  total_violations : int;
  bus_backend : string option;
}

(* a random admissible disturbance schedule: each application's
   arrivals are spaced at least its [r] apart, so in a fault-free world
   the sporadic model holds by construction *)
let random_disturbances rng (apps : Core.App.t list) ~horizon =
  List.concat_map
    (fun (a : Core.App.t) ->
      let r = a.Core.App.r in
      let rec go t acc =
        if t >= horizon then List.rev acc
        else
          let next = t + r + Faults.Prng.int rng ~bound:r in
          go next ((t, a.Core.App.name) :: acc)
      in
      go (Faults.Prng.int rng ~bound:r) [])
    apps

(* the outcome of one monitored run, ready to fold into a slot summary
   in (slot, run) order *)
type trial = {
  t_clean : bool;
  t_settling : int;
  t_wait : int;
  t_dwell : int;
  t_suppressed : int;
  t_injected : int;
  t_blackout : int;
  t_losses : int;
  t_drops : int;
  t_bus_lost : int;
  t_bus_undelivered : int;
  t_bus_overruns : int;
}

let run ?bus ~spec ~seed ~runs ~horizon slots =
  if runs < 1 then invalid_arg "Campaign.run: runs must be positive";
  if horizon < 1 then invalid_arg "Campaign.run: horizon must be positive";
  let n_slots = List.length slots in
  (* Each trial is a pure function of (seed, slot, run): it derives its
     own streams from a trial-local PRNG root, so no trial's draws
     depend on another's.  The campaign summary folds them in
     (slot, run) order. *)
  let trial s k apps =
    let t0 = Obs.Clock.now () in
    let names =
      Array.of_list
        (List.map (fun (a : Core.App.t) -> (a.Core.App.name, a.Core.App.r)) apps)
    in
    let root = Faults.Prng.create seed in
    let stream = Faults.Prng.split root ((k * n_slots) + s) in
    let dist_rng = Faults.Prng.split stream 0 in
    let plan_seed = Faults.Prng.next_int64 (Faults.Prng.split stream 1) in
    let disturbances = random_disturbances dist_rng apps ~horizon in
    let scenario = Scenario.make ~apps ~disturbances ~horizon in
    let result =
      match Faults.Plan.materialize ~spec ~seed:plan_seed ~apps:names ~horizon with
      | Error e -> Error e
      | Ok plan -> (
        let trace, fault_summary = Engine.run_with_faults ~plan scenario in
        (* the same plan that shaped the control run drives the medium's
           loss hook, so link loss and held actuations tell one story *)
        match
          Option.map (fun b -> Engine.replay_on_bus ~bus:b ~plan trace) bus
        with
        | exception Invalid_argument e -> Error e
        | bus_result ->
          let report =
            Monitor.check ~summary:fault_summary ?bus:bus_result ~apps trace
          in
          Ok
            {
              t_clean = report.Monitor.ok;
              t_settling = Monitor.count report `Settling;
              t_wait = Monitor.count report `Wait;
              t_dwell = Monitor.count report `Dwell;
              t_suppressed = Monitor.count report `Suppressed;
              t_injected = List.length fault_summary.Engine.injected;
              t_blackout = fault_summary.Engine.blackout_samples;
              t_losses = fault_summary.Engine.et_losses;
              t_drops = fault_summary.Engine.sensor_drops;
              t_bus_lost =
                (match bus_result with
                 | Some r -> r.Bus_check.lost_tx
                 | None -> 0);
              t_bus_undelivered =
                (match bus_result with
                 | Some r -> r.Bus_check.messages - r.Bus_check.delivered
                 | None -> 0);
              t_bus_overruns =
                (match bus_result with
                 | Some r -> r.Bus_check.et_overruns
                 | None -> 0);
            })
    in
    Obs.Event.emit "campaign.trial"
      [
        ("slot", Obs.Event.Int s);
        ("run", Obs.Event.Int k);
        ( "clean",
          Obs.Event.Bool
            (match result with Ok t -> t.t_clean | Error _ -> false) );
        ("dur_s", Obs.Event.Float (Obs.Clock.now () -. t0));
      ];
    result
  in
  let exception Materialize of string in
  try
    let slot_summaries =
      List.mapi
        (fun s apps ->
          let acc =
            ref
              {
                apps = List.map (fun (a : Core.App.t) -> a.Core.App.name) apps;
                runs;
                clean_runs = 0;
                j_star = 0;
                wait = 0;
                dwell = 0;
                suppressed = 0;
                injected = 0;
                blackout_samples = 0;
                et_losses = 0;
                sensor_drops = 0;
                bus_lost_tx = 0;
                bus_undelivered = 0;
                bus_overruns = 0;
              }
          in
          for k = 0 to runs - 1 do
            (* the first error in (slot, run) order wins *)
            match trial s k apps with
            | Error e -> raise (Materialize e)
            | Ok t ->
              let a = !acc in
              acc :=
                {
                  a with
                  clean_runs = (a.clean_runs + if t.t_clean then 1 else 0);
                  j_star = a.j_star + t.t_settling;
                  wait = a.wait + t.t_wait;
                  dwell = a.dwell + t.t_dwell;
                  suppressed = a.suppressed + t.t_suppressed;
                  injected = a.injected + t.t_injected;
                  blackout_samples = a.blackout_samples + t.t_blackout;
                  et_losses = a.et_losses + t.t_losses;
                  sensor_drops = a.sensor_drops + t.t_drops;
                  bus_lost_tx = a.bus_lost_tx + t.t_bus_lost;
                  bus_undelivered = a.bus_undelivered + t.t_bus_undelivered;
                  bus_overruns = a.bus_overruns + t.t_bus_overruns;
                }
          done;
          !acc)
        slots
    in
    let total_violations =
      List.fold_left
        (fun t s -> t + s.j_star + s.wait + s.dwell + s.suppressed)
        0 slot_summaries
    in
    if Obs.Trace_ctx.enabled () then begin
      Obs.Metric.count "campaign.runs" (runs * n_slots);
      Obs.Metric.count "campaign.violations" total_violations
    end;
    Ok
      {
        seed;
        spec;
        horizon;
        slots = slot_summaries;
        total_violations;
        bus_backend = Option.map Bus.configured_name bus;
      }
  with Materialize e -> Error e

let pp ppf s =
  Format.fprintf ppf "@[<v>fault campaign: spec %S seed %Ld@,"
    (Faults.Spec.to_string s.spec) s.seed;
  Format.fprintf ppf "%d slot group(s), %d run(s) each, horizon %d samples@,@,"
    (List.length s.slots)
    (match s.slots with g :: _ -> g.runs | [] -> 0)
    s.horizon;
  Format.fprintf ppf
    "%-24s %6s %6s %6s %6s %6s %6s@," "slot group" "clean" "J*" "T*_w" "dwell"
    "suppr" "inject";
  List.iter
    (fun g ->
      Format.fprintf ppf "%-24s %3d/%-2d %6d %6d %6d %6d %6d@,"
        (String.concat "," g.apps) g.clean_runs g.runs g.j_star g.wait g.dwell
        g.suppressed g.injected)
    s.slots;
  let blackout = List.fold_left (fun t g -> t + g.blackout_samples) 0 s.slots in
  let losses = List.fold_left (fun t g -> t + g.et_losses) 0 s.slots in
  let drops = List.fold_left (fun t g -> t + g.sensor_drops) 0 s.slots in
  Format.fprintf ppf
    "@,faults injected: %d blackout sample(s), %d ET loss(es), %d sensor drop(s)@,"
    blackout losses drops;
  (match s.bus_backend with
   | None -> ()
   | Some name ->
     let lost = List.fold_left (fun t g -> t + g.bus_lost_tx) 0 s.slots in
     let undeliv = List.fold_left (fun t g -> t + g.bus_undelivered) 0 s.slots in
     let over = List.fold_left (fun t g -> t + g.bus_overruns) 0 s.slots in
     (* the reference transport stays silent when nothing went wrong so
        a campaign replayed on it prints exactly what it printed before
        the transport seam existed *)
     if (not (String.equal name "flexray")) || lost + undeliv + over > 0 then
       Format.fprintf ppf
         "bus (%s): %d lost transmission(s), %d undelivered, %d one-sample overrun(s)@,"
         name lost undeliv over);
  Format.fprintf ppf "total guarantee violations: %d@]" s.total_violations
