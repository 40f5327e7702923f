type violation =
  | Settling_exceeded of { sample : int; j : int option; j_star : int }
  | Wait_overrun of { sample : int }
  | Dwell_cut_short of { sample : int; wt : int; dwell : int; dt_min : int }
  | Dwell_overrun of { sample : int; wt : int; dwell : int; dt_max : int }
  | Suppressed_arrival of { sample : int }

type app_verdict = { name : string; violations : violation list }

type report = { verdicts : app_verdict list; bus_ok : bool; ok : bool }

let violation_sample = function
  | Settling_exceeded { sample; _ }
  | Wait_overrun { sample }
  | Dwell_cut_short { sample; _ }
  | Dwell_overrun { sample; _ }
  | Suppressed_arrival { sample } -> sample

let settling_violations (trace : Trace.t) (apps : Core.App.t array) id =
  List.filter_map
    (fun (sample, id') ->
      if id' <> id then None
      else
        let j_star = apps.(id).Core.App.j_star in
        match Trace.settling_after trace ~id ~sample with
        | Some j when j <= j_star -> None
        | j -> Some (Settling_exceeded { sample; j; j_star }))
    trace.Trace.disturbances

(* every completed slot tenure of [id]: granted at some sample with the
   wait recorded in the log, ended by a release, a preemption, or a
   blackout denial; an unfinished tenure at the end of the trace can
   still witness an overrun *)
let dwell_violations (trace : Trace.t) (spec : Sched.Appspec.t) id =
  let horizon = Array.length trace.Trace.owner in
  let check ~granted ~wt ~until acc =
    let dwell = until - granted in
    if wt > spec.Sched.Appspec.t_w_max then acc
    else
      let dt_min = spec.Sched.Appspec.t_dw_min.(wt)
      and dt_max = spec.Sched.Appspec.t_dw_max.(wt) in
      if dwell < dt_min then
        Dwell_cut_short { sample = until; wt; dwell; dt_min } :: acc
      else if dwell > dt_max then
        Dwell_overrun { sample = until; wt; dwell; dt_max } :: acc
      else acc
  in
  let rec scan tenure acc = function
    | [] -> (
      match tenure with
      | Some (granted, wt) ->
        (* still running at the end of the trace: only an overrun is
           decidable *)
        let dwell = horizon - granted in
        if
          wt <= spec.Sched.Appspec.t_w_max
          && dwell > spec.Sched.Appspec.t_dw_max.(wt)
        then
          List.rev
            (Dwell_overrun
               {
                 sample = horizon;
                 wt;
                 dwell;
                 dt_max = spec.Sched.Appspec.t_dw_max.(wt);
               }
            :: acc)
        else List.rev acc
      | None -> List.rev acc)
    | (e : Sched.Arbiter.log_entry) :: rest -> (
      match (e.Sched.Arbiter.event, tenure) with
      | `Grant (i, wt), None when i = id ->
        scan (Some (e.Sched.Arbiter.sample, wt)) acc rest
      | (`Release i | `Preempt i | `Deny i), Some (granted, wt) when i = id ->
        scan None (check ~granted ~wt ~until:e.Sched.Arbiter.sample acc) rest
      | _ -> scan tenure acc rest)
  in
  scan None [] trace.Trace.log

let check ?(summary = Engine.no_faults) ?bus ~apps (trace : Trace.t) =
  let apps = Array.of_list apps in
  let n = Array.length apps in
  if n <> Array.length trace.Trace.names then
    invalid_arg "Monitor.check: app list does not match the trace";
  let specs = Array.mapi (fun i a -> Core.App.spec a ~id:i) apps in
  let verdicts =
    List.init n (fun id ->
        let settling = settling_violations trace apps id in
        let waits =
          List.filter_map
            (fun (e : Sched.Arbiter.log_entry) ->
              match e.Sched.Arbiter.event with
              | `Error i when i = id ->
                Some (Wait_overrun { sample = e.Sched.Arbiter.sample })
              | _ -> None)
            trace.Trace.log
        in
        let dwells = dwell_violations trace specs.(id) id in
        let suppressed =
          List.filter_map
            (fun (sample, i) ->
              if i = id then Some (Suppressed_arrival { sample }) else None)
            summary.Engine.suppressed
        in
        let violations =
          List.stable_sort
            (fun a b -> compare (violation_sample a) (violation_sample b))
            (settling @ waits @ dwells @ suppressed)
        in
        { name = apps.(id).Core.App.name; violations })
  in
  let bus_ok =
    match (bus : Bus_check.result option) with
    | None -> true
    | Some r -> Bus_check.facts_hold r
  in
  let ok = List.for_all (fun v -> v.violations = []) verdicts && bus_ok in
  if Obs.Trace_ctx.enabled () then begin
    let count kind =
      List.fold_left
        (fun acc v ->
          acc
          + List.length
              (List.filter
                 (fun viol ->
                   match (viol, kind) with
                   | Settling_exceeded _, `Settling
                   | Wait_overrun _, `Wait
                   | (Dwell_cut_short _ | Dwell_overrun _), `Dwell
                   | Suppressed_arrival _, `Suppressed -> true
                   | _ -> false)
                 v.violations))
        0 verdicts
    in
    Obs.Metric.count "monitor.j_star_violations" (count `Settling);
    Obs.Metric.count "monitor.wait_overruns" (count `Wait);
    Obs.Metric.count "monitor.dwell_violations" (count `Dwell);
    Obs.Metric.count "monitor.suppressed" (count `Suppressed)
  end;
  { verdicts; bus_ok; ok }

let total_violations r =
  List.fold_left (fun acc v -> acc + List.length v.violations) 0 r.verdicts

let count r kind =
  List.fold_left
    (fun acc v ->
      acc
      + List.length
          (List.filter
             (fun viol ->
               match (viol, kind) with
               | Settling_exceeded _, `Settling
               | Wait_overrun _, `Wait
               | (Dwell_cut_short _ | Dwell_overrun _), `Dwell
               | Suppressed_arrival _, `Suppressed -> true
               | _ -> false)
             v.violations))
    0 r.verdicts

let pp_violation ppf = function
  | Settling_exceeded { sample; j; j_star } ->
    Format.fprintf ppf "@[settling exceeded at sample %d: %s > J*=%d@]" sample
      (match j with Some j -> string_of_int j | None -> "unsettled")
      j_star
  | Wait_overrun { sample } ->
    Format.fprintf ppf "wait budget T*_w overrun at sample %d" sample
  | Dwell_cut_short { sample; wt; dwell; dt_min } ->
    Format.fprintf ppf
      "dwell cut short at sample %d: %d < T-_dw(%d)=%d" sample dwell wt dt_min
  | Dwell_overrun { sample; wt; dwell; dt_max } ->
    Format.fprintf ppf
      "dwell overrun at sample %d: %d > T+_dw(%d)=%d" sample dwell wt dt_max
  | Suppressed_arrival { sample } ->
    Format.fprintf ppf "disturbance suppressed at sample %d (app not ready)"
      sample

let pp ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun v ->
      match v.violations with
      | [] -> Format.fprintf ppf "%-10s ok@," v.name
      | vs ->
        Format.fprintf ppf "%-10s %d violation(s)@," v.name (List.length vs);
        List.iter (fun viol -> Format.fprintf ppf "  - %a@," pp_violation viol) vs)
    r.verdicts;
  if not r.bus_ok then
    Format.fprintf ppf "bus        transport guarantees broken@,";
  Format.fprintf ppf "verdict: %s@]" (if r.ok then "ALL GUARANTEES HELD" else "VIOLATED")
