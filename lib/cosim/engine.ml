type fault_summary = {
  injected : (int * int) list;
  suppressed : (int * int) list;
  denied : (int * int) list;
  blackout_samples : int;
  et_losses : int;
  sensor_drops : int;
}

let no_faults =
  {
    injected = [];
    suppressed = [];
    denied = [];
    blackout_samples = 0;
    et_losses = 0;
    sensor_drops = 0;
  }

let run_with_faults ?policy ?plan (scenario : Scenario.t) =
  let apps = Array.of_list scenario.Scenario.apps in
  let n = Array.length apps in
  if n = 0 then invalid_arg "Engine.run: empty scenario";
  let horizon = scenario.Scenario.horizon in
  let plan =
    match plan with
    | None -> Faults.Plan.none ~n ~horizon
    | Some p ->
      if p.Faults.Plan.horizon <> horizon then
        invalid_arg "Engine.run: fault plan horizon mismatch";
      if Array.length p.Faults.Plan.et_loss <> n then
        invalid_arg "Engine.run: fault plan app count mismatch";
      p
  in
  Obs.Span.with_ "cosim.run" @@ fun () ->
  let h = apps.(0).Core.App.plant.Control.Plant.h in
  Array.iter
    (fun (a : Core.App.t) ->
      if a.Core.App.plant.Control.Plant.h <> h then
        invalid_arg "Engine.run: inconsistent sampling periods")
    apps;
  let specs = Array.mapi (fun i a -> Core.App.spec a ~id:i) apps in
  let arbiter = Sched.Arbiter.create ?policy specs in
  let disturbances =
    List.sort_uniq compare
      (Scenario.disturbance_schedule scenario @ plan.Faults.Plan.bursts)
  in
  let outputs = Array.init n (fun _ -> Array.make horizon 0.) in
  let states =
    Array.map
      (fun (a : Core.App.t) ->
        ref (Control.Switched.initial
               (Linalg.Vec.zeros (Control.Plant.order a.Core.App.plant))))
      apps
  in
  let injected = ref [] and suppressed = ref [] and denied = ref [] in
  let et_losses = ref 0 and sensor_drops = ref 0 in
  for k = 0 to horizon - 1 do
    let arrivals =
      List.filter_map (fun (s, id) -> if s = k then Some id else None)
        disturbances
    in
    (* under faults an arrival may find its application still waiting,
       running, or in error (the nominal sporadic-model guarantee no
       longer holds); such arrivals are suppressed, not crashes *)
    let deliverable, dropped =
      let ok = Sched.Slot_state.disturbable specs (Sched.Arbiter.state arbiter) in
      List.partition (fun id -> List.mem id ok) arrivals
    in
    List.iter (fun id -> injected := (k, id) :: !injected) deliverable;
    List.iter (fun id -> suppressed := (k, id) :: !suppressed) dropped;
    let slot_available = not plan.Faults.Plan.blackout.(k) in
    let outcome =
      Sched.Arbiter.step arbiter ~disturbed:deliverable ~slot_available ()
    in
    List.iter
      (fun id -> denied := (k, id) :: !denied)
      outcome.Sched.Slot_state.denied;
    let owner = (Sched.Arbiter.state arbiter).Sched.Slot_state.owner in
    List.iter
      (fun id -> states.(id) := Control.Switched.disturbed apps.(id).Core.App.plant)
      deliverable;
    for i = 0 to n - 1 do
      let a = apps.(i) in
      outputs.(i).(k) <- Control.Switched.output a.Core.App.plant !(states.(i));
      let mode =
        if owner = Some i then Control.Switched.Mt else Control.Switched.Me
      in
      let s = !(states.(i)) in
      states.(i) :=
        (if plan.Faults.Plan.sensor_drop.(i).(k) then begin
           (* the controller computes from a held measurement: no new
              command is issued, the plant evolves under the last
              actuated value *)
           incr sensor_drops;
           {
             Control.Switched.x =
               Control.Plant.step a.Core.App.plant s.Control.Switched.x
                 s.Control.Switched.u_prev;
             u_prev = s.Control.Switched.u_prev;
           }
         end
         else if
           mode = Control.Switched.Me && plan.Faults.Plan.et_loss.(i).(k)
         then begin
           (* the ET message carrying the fresh command is lost: the
              state still evolves under the previously actuated value
              (the ME update applies u_prev anyway) but the actuator
              holds — one extra sample of delay *)
           incr et_losses;
           let s' =
             Control.Switched.step a.Core.App.plant a.Core.App.gains
               Control.Switched.Me s
           in
           { s' with Control.Switched.u_prev = s.Control.Switched.u_prev }
         end
         else
           Control.Switched.step a.Core.App.plant a.Core.App.gains mode s)
    done
  done;
  let owner_trace = Sched.Arbiter.owner_trace arbiter in
  let blackout_samples =
    Array.fold_left
      (fun acc b -> if b then acc + 1 else acc)
      0 plan.Faults.Plan.blackout
  in
  if Obs.Trace_ctx.enabled () then begin
    Obs.Metric.count "cosim.samples" horizon;
    Obs.Metric.count "cosim.apps" n;
    Obs.Metric.count "cosim.disturbances" (List.length !injected);
    Obs.Metric.count "cosim.preemptions"
      (List.length
         (List.filter
            (fun (e : Sched.Arbiter.log_entry) ->
              match e.Sched.Arbiter.event with `Preempt _ -> true | _ -> false)
            (Sched.Arbiter.log arbiter)));
    if not (Faults.Plan.is_empty plan) then begin
      Obs.Metric.count "cosim.faults.blackout_samples" blackout_samples;
      Obs.Metric.count "cosim.faults.et_losses" !et_losses;
      Obs.Metric.count "cosim.faults.sensor_drops" !sensor_drops;
      Obs.Metric.count "cosim.faults.suppressed" (List.length !suppressed);
      Obs.Metric.count "cosim.faults.denials" (List.length !denied)
    end;
    (* per-application mode switches: each change of slot ownership
       status (Mt <-> Me) across consecutive samples *)
    for i = 0 to n - 1 do
      let switches = ref 0 in
      for k = 1 to horizon - 1 do
        let owns j = owner_trace.(j) = Some i in
        if owns k <> owns (k - 1) then incr switches
      done;
      Obs.Metric.observe_value "cosim.mode_switches" (float_of_int !switches)
    done
  end;
  ( {
      Trace.names = Array.map (fun (a : Core.App.t) -> a.Core.App.name) apps;
      h;
      outputs;
      owner = owner_trace;
      log = Sched.Arbiter.log arbiter;
      disturbances = List.rev !injected;
    },
    {
      injected = List.rev !injected;
      suppressed = List.rev !suppressed;
      denied = List.rev !denied;
      blackout_samples;
      et_losses = !et_losses;
      sensor_drops = !sensor_drops;
    } )

let run ?policy scenario = fst (run_with_faults ?policy scenario)

let replay_on_bus ~bus ?plan (trace : Trace.t) =
  let h_us =
    let us = int_of_float ((trace.Trace.h *. 1e6) +. 0.5) in
    if us <= 0 then invalid_arg "Engine.replay_on_bus: non-positive period";
    us
  in
  let loss =
    match plan with
    | None -> Bus.loss_none
    | Some p ->
      (* the plan's ET masks destroy first attempts; each link-burst
         clause additionally fades whole retransmission runs.  A
         message is lost when any hook says so. *)
      List.fold_left
        (fun acc (seed, pr, len) ->
          let burst = Bus.loss_burst ~seed ~p:pr ~len in
          fun m ~attempt -> acc m ~attempt || burst m ~attempt)
        (Bus.loss_of_plan ~h_us p)
        p.Faults.Plan.link_burst
  in
  Bus_check.validate_slots ~bus ~loss ~h_us
    [ (Array.to_list trace.Trace.names, trace) ]
