(* Experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md section 4 for the index), then
   runs Bechamel micro-benchmarks of the computational kernels.

   Experiments:
     E1 Fig. 2  response curves of the motivational example
     E2 Fig. 3  settling surface J(Tw, Tdw), stable vs unstable pair
     E3 Fig. 4  minimum/maximum dwell times vs wait time (C1)
     E4 Table 1 case-study timing data for C1..C6
     E5 Sec. 5  slot mapping: proposed (2 slots) vs baseline (4 slots)
     E6 Fig. 8  responses of C1,C3,C4,C5 sharing slot S1
     E7 Fig. 9  responses of C2,C6 sharing slot S2
     E8 Sec. 5  verification times across engines and accelerations *)

let section id title =
  Printf.printf "\n%s\n%s %s\n%s\n"
    (String.make 72 '=') id title (String.make 72 '=')

let h = Casestudy.h

let app_of (a : Casestudy.app) =
  Core.App.make ~name:a.Casestudy.name ~plant:a.Casestudy.plant
    ~gains:a.Casestudy.gains ~r:a.Casestudy.r ~j_star:a.Casestudy.j_star ()

let apps = lazy (List.map app_of Casestudy.all)

let find_app name =
  List.find (fun a -> String.equal a.Core.App.name name) (Lazy.force apps)

let pp_samples j = Printf.sprintf "%d samples (%.2f s)" j (float_of_int j *. h)

let pp_arr a =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]"

(* ------------------------------------------------------------------ *)
(* E1 / Fig. 2 *)

let fig2 () =
  section "E1" "Fig. 2 — response curves for the motivational example (C1)";
  let c1 = Casestudy.c1 in
  let gs = c1.Casestudy.gains and gu = Casestudy.c1_unstable_pair in
  let run gains mode_at =
    Control.Switched.run c1.Casestudy.plant gains mode_at
      (Control.Switched.disturbed c1.Casestudy.plant)
      60
  in
  let curves =
    [
      ("KT", run gs (Core.Strategy.pure Control.Switched.Mt), 0.18);
      ("KEs", run gs (Core.Strategy.pure Control.Switched.Me), 0.68);
      ("KEu", run gu (Core.Strategy.pure Control.Switched.Me), 0.68);
      ("4KEs+4KT+nKEs", run gs (Core.Strategy.mode_at ~t_w:4 ~t_dw:4), 0.28);
      ("4KEu+4KT+nKEu", run gu (Core.Strategy.mode_at ~t_w:4 ~t_dw:4), 0.58);
    ]
  in
  Printf.printf "%-16s %-22s %s\n" "strategy" "settling (ours)" "paper";
  List.iter
    (fun (name, y, paper) ->
      match Control.Settle.settling_index y with
      | Some j -> Printf.printf "%-16s %-22s %.2f s\n" name (pp_samples j) paper
      | None -> Printf.printf "%-16s %-22s %.2f s\n" name "no settling" paper)
    curves;
  Printf.printf "\ny(t) series (every 4 samples, t in seconds):\n%-6s" "t";
  List.iter (fun (n, _, _) -> Printf.printf " %14s" n) curves;
  print_newline ();
  let k = ref 0 in
  while !k <= 50 do
    Printf.printf "%-6.2f" (float_of_int !k *. h);
    List.iter (fun (_, y, _) -> Printf.printf " %14.4f" y.(!k)) curves;
    print_newline ();
    k := !k + 4
  done

(* ------------------------------------------------------------------ *)
(* E2 / Fig. 3 *)

let fig3 () =
  section "E2" "Fig. 3 — settling time J(Tw, Tdw): switching stability matters";
  let c1 = Casestudy.c1 in
  let surface gains =
    Core.Dwell.surface c1.Casestudy.plant gains ~t_w_max:10 ~t_dw_max:8
  in
  let print_grid label gains =
    Printf.printf "\n%s — J in seconds, rows Tw = 0..10, cols Tdw = 1..8:\n     "
      label;
    for d = 1 to 8 do
      Printf.printf "  Tdw=%d" d
    done;
    print_newline ();
    let s = surface gains in
    for t_w = 0 to 10 do
      Printf.printf "Tw=%-2d" t_w;
      List.iter
        (fun (tw, _, j) ->
          if tw = t_w then
            match j with
            | Some j -> Printf.printf " %6.2f" (float_of_int j *. h)
            | None -> Printf.printf "      -")
        s;
      print_newline ()
    done
  in
  print_grid "KT + KEs (switching stable)" c1.Casestudy.gains;
  print_grid "KT + KEu (not switching stable)" Casestudy.c1_unstable_pair;
  (* the headline of Sec. 3.1: the unstable pair needs more resource *)
  let best gains t_w =
    let js =
      List.filter_map
        (fun (tw, _, j) -> if tw = t_w then j else None)
        (surface gains)
    in
    List.fold_left Int.min max_int js
  in
  Printf.printf
    "\nbest settling at Tw = 4 within 8 dwell samples: stable pair %s, unstable pair %s\n"
    (pp_samples (best c1.Casestudy.gains 4))
    (pp_samples (best Casestudy.c1_unstable_pair 4))

(* ------------------------------------------------------------------ *)
(* E3 / Fig. 4 *)

let fig4 () =
  section "E3" "Fig. 4 — minimum and maximum dwell times vs wait time (C1, J* = 0.36 s)";
  let a = find_app "C1" in
  let t = a.Core.App.table in
  let p = Casestudy.paper (Casestudy.find "C1") in
  Printf.printf "%-5s %-18s %-18s %-12s %-12s\n" "Tw" "T-dw (J at T-dw)"
    "T+dw (J at T+dw)" "paper T-dw" "paper T+dw";
  for t_w = 0 to t.Core.Dwell.t_w_max do
    Printf.printf "%-5d %d (%.2f s)%-8s %d (%.2f s)%-8s %-12d %-12d\n" t_w
      t.Core.Dwell.t_dw_min.(t_w)
      (float_of_int t.Core.Dwell.j_at_min.(t_w) *. h)
      "" t.Core.Dwell.t_dw_max.(t_w)
      (float_of_int t.Core.Dwell.j_at_max.(t_w) *. h)
      ""
      p.Casestudy.p_t_dw_min.(t_w)
      p.Casestudy.p_t_dw_max.(t_w)
  done;
  Printf.printf
    "\nAt Tw = 0, leaving MT after T+dw = %d samples matches the dedicated slot (J = J_T = %s).\n"
    t.Core.Dwell.t_dw_max.(0) (pp_samples t.Core.Dwell.jt)

(* ------------------------------------------------------------------ *)
(* E4 / Table 1 *)

let table1 () =
  section "E4" "Table 1 — case-study data and results (ours vs paper)";
  List.iter
    (fun (a : Core.App.t) ->
      let t = a.Core.App.table in
      let p = Casestudy.paper (Casestudy.find a.Core.App.name) in
      Printf.printf
        "%s: r=%d J*=%d | J_T=%d (paper %d)  J_E=%d (paper %d)  T*_w=%d (paper %d)\n"
        a.Core.App.name a.Core.App.r a.Core.App.j_star t.Core.Dwell.jt
        p.Casestudy.p_jt t.Core.Dwell.je p.Casestudy.p_je t.Core.Dwell.t_w_max
        p.Casestudy.p_t_w_max;
      Printf.printf "  T-_dw ours : %s\n  T-_dw paper: %s\n"
        (pp_arr t.Core.Dwell.t_dw_min)
        (pp_arr p.Casestudy.p_t_dw_min);
      Printf.printf "  T+_dw ours : %s\n  T+_dw paper: %s\n"
        (pp_arr t.Core.Dwell.t_dw_max)
        (pp_arr p.Casestudy.p_t_dw_max))
    (Lazy.force apps)

(* ------------------------------------------------------------------ *)
(* E5 / mapping *)

let mapping () =
  section "E5" "Sec. 5 — resource mapping: proposed strategy vs DATE'12 baseline";
  let sorted = Core.Mapping.sort_order (Lazy.force apps) in
  Printf.printf "first-fit order (ascending T*_w, then T-*_dw): %s\n"
    (String.concat "," (List.map (fun a -> a.Core.App.name) sorted));
  let t0 = Unix.gettimeofday () in
  let outcome = Core.Mapping.first_fit (Lazy.force apps) in
  Printf.printf "proposed strategy: %d slots (%d verifications, %.1f s)\n"
    (List.length outcome.Core.Mapping.slots)
    outcome.Core.Mapping.verifications
    (Unix.gettimeofday () -. t0);
  List.iter
    (fun slot ->
      Printf.printf "  S%d = {%s}\n" (slot.Core.Mapping.index + 1)
        (String.concat ", "
           (List.map (fun a -> a.Core.App.name) slot.Core.Mapping.apps)))
    outcome.Core.Mapping.slots;
  let baseline_specs =
    List.mapi
      (fun i (a : Casestudy.app) ->
        let bp =
          Core.Baseline_params.compute a.Casestudy.plant a.Casestudy.gains
            ~j_star:a.Casestudy.j_star
        in
        Printf.printf "  baseline params %s: w* = %d, occupancy = %d\n"
          a.Casestudy.name bp.Core.Baseline_params.w_star
          bp.Core.Baseline_params.c_occ;
        Core.Baseline_params.to_spec ~id:i ~name:a.Casestudy.name
          ~r:a.Casestudy.r bp)
      Casestudy.all
  in
  let order = List.map (fun a -> a.Core.App.name) sorted in
  let sorted_specs =
    List.map
      (fun n ->
        List.find (fun s -> String.equal s.Sched.Baseline.name n) baseline_specs)
      order
  in
  List.iter
    (fun (strategy, label) ->
      let slots = Sched.Baseline.first_fit strategy sorted_specs in
      Printf.printf "baseline (%s): %d slots: %s\n" label (List.length slots)
        (String.concat " | "
           (List.map
              (fun slot ->
                String.concat "," (List.map (fun s -> s.Sched.Baseline.name) slot))
              slots)))
    [
      (Sched.Baseline.Dm, "non-preemptive deadline monotonic");
      (Sched.Baseline.Delayed, "delayed requests");
    ];
  let ours = List.length outcome.Core.Mapping.slots in
  Printf.printf
    "saving: %d slots vs 4 baseline slots = %.0f%% (paper reports 50%%)\n" ours
    (100. *. (1. -. (float_of_int ours /. 4.)));
  (* beyond the paper: is the first-fit result actually optimal? *)
  let t1 = Unix.gettimeofday () in
  let opt = Core.Mapping.optimal (Lazy.force apps) in
  Printf.printf
    "exact minimum (monotone-pruned subset DP): %d slots (%d verifications, %.1f s)\n"
    (List.length opt.Core.Mapping.slots)
    opt.Core.Mapping.verifications
    (Unix.gettimeofday () -. t1);
  List.iter
    (fun slot ->
      Printf.printf "  O%d = {%s}\n" (slot.Core.Mapping.index + 1)
        (String.concat ", "
           (List.map (fun a -> a.Core.App.name) slot.Core.Mapping.apps)))
    opt.Core.Mapping.slots

(* ------------------------------------------------------------------ *)
(* E6/E7: co-simulation figures *)

let cosim_figure ~id ~title ~names ~disturbances =
  section id title;
  let group = List.map find_app names in
  let scenario = Cosim.Scenario.make ~apps:group ~disturbances ~horizon:60 in
  let trace = Cosim.Engine.run scenario in
  Printf.printf "slot occupancy: %s\n"
    (String.concat " "
       (List.map
          (fun (i, a, b) ->
            Printf.sprintf "%s[%d..%d]" trace.Cosim.Trace.names.(i) a b)
          (Cosim.Trace.owner_intervals trace)));
  List.iter
    (fun (sample, i) ->
      let a = List.nth group i in
      match Cosim.Trace.settling_after trace ~id:i ~sample with
      | Some j ->
        Printf.printf "%s (disturbed at %d): J = %s, J* = %d, TT samples used = %d\n"
          trace.Cosim.Trace.names.(i) sample (pp_samples j) a.Core.App.j_star
          (Cosim.Trace.tt_samples trace ~id:i)
      | None ->
        Printf.printf "%s (disturbed at %d): did not settle\n"
          trace.Cosim.Trace.names.(i) sample)
    trace.Cosim.Trace.disturbances;
  Printf.printf "all requirements met: %b\n"
    (Cosim.Trace.meets_requirements trace group);
  Printf.printf "\nslot occupancy ribbon ('*' disturbance, '#' TT ownership):\n";
  List.iter print_endline (Cosim.Trace.to_gantt trace);
  Printf.printf "\ny(t) series (every 3 samples):\n";
  List.iter print_endline (Cosim.Trace.to_rows trace ~stride:3)

let fig8 () =
  cosim_figure ~id:"E6"
    ~title:"Fig. 8 — C1, C3, C4, C5 share slot S1, simultaneous disturbance"
    ~names:[ "C1"; "C5"; "C4"; "C3" ]
    ~disturbances:[ (0, "C1"); (0, "C3"); (0, "C4"); (0, "C5") ]

let fig9 () =
  cosim_figure ~id:"E7"
    ~title:"Fig. 9 — C2 and C6 share slot S2, C6 disturbed 10 samples later"
    ~names:[ "C6"; "C2" ]
    ~disturbances:[ (0, "C2"); (10, "C6") ]

(* ------------------------------------------------------------------ *)
(* E8: verification engines *)

let verify_times () =
  section "E8"
    "Sec. 5 — verification cost: zone engine vs discrete engines and accelerations";
  let specs_of names = Core.Mapping.specs_of_group (List.map find_app names) in
  let describe label f =
    let r : Core.Dverify.result = f () in
    Printf.printf "  %-28s %-6s %9d states %9d trans %8.2f s\n" label
      (match r.Core.Dverify.verdict with
       | Core.Dverify.Safe -> "safe"
       | Core.Dverify.Unsafe _ -> "unsafe"
       | Core.Dverify.Undetermined _ -> "undec")
      r.Core.Dverify.stats.Core.Dverify.states
      r.Core.Dverify.stats.Core.Dverify.transitions
      r.Core.Dverify.stats.Core.Dverify.elapsed;
    r.Core.Dverify.stats.Core.Dverify.elapsed
  in
  let ta_describe label specs =
    let r = Core.Ta_model.verify specs in
    Printf.printf "  %-28s %-6s %9d states %9s %8.2f s\n" label
      (match r.Core.Ta_model.outcome with
       | `Safe -> "safe"
       | `Unsafe -> "unsafe"
       | `Undetermined _ -> "undec")
      r.Core.Ta_model.stats.Ta.Reach.states ""
      r.Core.Ta_model.stats.Ta.Reach.elapsed
  in
  List.iter
    (fun (label, names, run_ta) ->
      Printf.printf "%s:\n" label;
      let specs = specs_of names in
      let t_bfs =
        describe "discrete BFS (naive)" (fun () -> Core.Dverify.reference specs)
      in
      let t_sub =
        describe "engine: DFS + subsumption" (fun () ->
            Core.Dverify.verify specs)
      in
      let t_b1 =
        describe "bounded disturbances k=1" (fun () ->
            Core.Dverify.verify_bounded ~instances:1 specs)
      in
      ignore
        (describe "bounded disturbances k=2" (fun () ->
             Core.Dverify.verify_bounded ~instances:2 specs));
      if run_ta then ta_describe "TA zone engine (mini-UPPAAL)" specs;
      Printf.printf
        "  speedups vs naive BFS: engine %.1fx, bounded(k=1) %.1fx\n"
        (t_bfs /. Float.max 1e-9 t_sub)
        (t_bfs /. Float.max 1e-9 t_b1))
    [
      ("{C1,C5}", [ "C1"; "C5" ], true);
      ("S2 = {C6,C2}", [ "C6"; "C2" ], true);
      ("{C1,C5,C4}", [ "C1"; "C5"; "C4" ], false);
      ("S1 = {C1,C5,C4,C3}", [ "C1"; "C5"; "C4"; "C3" ], false);
    ];
  Printf.printf
    "\nNote: the zone engine decides the 3-app group in ~1 min and exceeds memory\n\
     on the 4-app group — the discrete-time reduction (exact for this\n\
     sample-synchronous system) is what makes S1 tractable, mirroring the\n\
     paper's 5 h -> 15 min acceleration on UPPAAL.\n"

(* ------------------------------------------------------------------ *)
(* FlexRay design check *)

let flexray_check () =
  section "X1" "FlexRay substrate — ET one-sample-delay design assumption";
  let cfg = Flexray.Config.default_automotive in
  Format.printf "%a@." Flexray.Config.pp cfg;
  Printf.printf "%-22s %-12s %-10s %s\n" "hp load (n x len @ p)" "WCRT (us)"
    "h (us)" "one-sample ok";
  List.iter
    (fun (n_hp, len, period) ->
      let hp =
        List.init n_hp (fun _ ->
            { Flexray.Wcrt.length_minislots = len; period_cycles = period })
      in
      let label = Printf.sprintf "%d x %d @ %d" n_hp len period in
      match Flexray.Wcrt.wcrt_us cfg ~own_id:(n_hp + 1) ~own_length:10 hp with
      | Some w ->
        Printf.printf "%-22s %-12d %-10d %b\n" label w 20_000 (w <= 20_000)
      | None -> Printf.printf "%-22s %-12s %-10d false\n" label "starved" 20_000)
    [
      (0, 20, 5);
      (5, 20, 5);
      (4, 45, 1);
      (6, 30, 1);
      (8, 24, 2);
      (8, 24, 1);
      (1, 195, 1);
    ]

(* ------------------------------------------------------------------ *)
(* Margins of the verified dimensioning *)

let margins () =
  section "E9"
    "Dimensioning tightness — exact worst-case waits and settling margins";
  Printf.printf
    "The verifier records the worst wait at which each application is ever\n\
     granted; with the dwell tables this bounds the worst settling time.\n\
     margin = J* - worst settling: 0 means the slot is dimensioned exactly\n\
     tight, which is the point of the paper.\n\n";
  List.iter
    (fun names ->
      let group = List.map find_app names in
      Printf.printf "{%s}:\n" (String.concat "," names);
      Format.printf "%a@." Core.Margin.pp (Core.Margin.analyse ~apps:group ()))
    [ [ "C1"; "C5"; "C4"; "C3" ]; [ "C6"; "C2" ] ]

(* ------------------------------------------------------------------ *)
(* Ablation: the concluding-remarks lazy-preemption variant *)

let preemption_ablation () =
  section "X2"
    "Ablation — delayed preemption (the paper's concluding remarks)";
  Printf.printf
    "Policy: keep the occupant past T-_dw and preempt only when a waiting\n\
     application reaches its last admissible sample (WT = T*_w).\n\n";
  Printf.printf "%-22s %-10s %-10s\n" "group" "eager" "lazy";
  List.iter
    (fun names ->
      let specs = Core.Mapping.specs_of_group (List.map find_app names) in
      let v policy =
        match (Core.Dverify.verify ~policy specs).Core.Dverify.verdict with
        | Core.Dverify.Safe -> "safe"
        | Core.Dverify.Unsafe _ -> "UNSAFE"
        | Core.Dverify.Undetermined _ -> "undec"
      in
      Printf.printf "%-22s %-10s %-10s\n"
        ("{" ^ String.concat "," names ^ "}")
        (v Sched.Slot_state.Eager_preempt)
        (v Sched.Slot_state.Lazy_preempt))
    [
      [ "C1"; "C5" ];
      [ "C6"; "C2" ];
      [ "C1"; "C5"; "C4" ];
      [ "C1"; "C5"; "C4"; "C3" ];
    ];
  (* per-application settling on the Fig. 8 scenario under both *)
  let s1 = List.map find_app [ "C1"; "C5"; "C4"; "C3" ] in
  let scenario =
    Cosim.Scenario.make ~apps:s1
      ~disturbances:[ (0, "C1"); (0, "C3"); (0, "C4"); (0, "C5") ]
      ~horizon:80
  in
  Printf.printf "\nFig. 8 scenario, settling per application (samples):\n";
  Printf.printf "%-8s %s\n" "policy" "C1   C5   C4   C3   all meet J*?";
  List.iter
    (fun (policy, label) ->
      let tr = Cosim.Engine.run ~policy scenario in
      let js =
        List.map
          (fun (s, i) ->
            match Cosim.Trace.settling_after tr ~id:i ~sample:s with
            | Some j -> string_of_int j
            | None -> "-")
          (List.sort compare tr.Cosim.Trace.disturbances)
      in
      Printf.printf "%-8s %-4s %-4s %-4s %-4s %b\n" label (List.nth js 0)
        (List.nth js 3) (List.nth js 2) (List.nth js 1)
        (Cosim.Trace.meets_requirements tr s1))
    [
      (Sched.Slot_state.Eager_preempt, "eager");
      (Sched.Slot_state.Lazy_preempt, "lazy");
    ];
  (* how many slots would the lazy policy need? *)
  let lazy_verifier specs =
    match
      (Core.Dverify.verify ~policy:Sched.Slot_state.Lazy_preempt specs)
        .Core.Dverify.verdict
    with
    | Core.Dverify.Safe -> `Safe
    | Core.Dverify.Unsafe _ -> `Unsafe
    | Core.Dverify.Undetermined r ->
      `Undetermined (Format.asprintf "%a" Core.Dverify.pp_reason r)
  in
  let o = Core.Mapping.first_fit ~verifier:lazy_verifier (Lazy.force apps) in
  Printf.printf
    "\nfirst-fit under lazy preemption: %d slots (eager needs 2) — the\n\
     occupant's gain costs schedulability, as the paper anticipates.\n"
    (List.length o.Core.Mapping.slots)

(* ------------------------------------------------------------------ *)
(* Ablation: dwell-table memory (run-length encoding, Sec. 5 remark) *)

let table_memory () =
  section "X3" "Dwell-table storage — run-length encoding (Sec. 5 remark)";
  Printf.printf "%-5s %-14s %-12s %-12s %-10s %s\n" "app" "plain (words)"
    "RLE (words)" "dict (words)" "distinct" "round-trip";
  List.iter
    (fun (a : Core.App.t) ->
      let t = a.Core.App.table in
      let plain = 2 * Array.length t.Core.Dwell.t_dw_min in
      let rle =
        Core.Table_codec.encoded_words (Core.Table_codec.encode t.Core.Dwell.t_dw_min)
        + Core.Table_codec.encoded_words (Core.Table_codec.encode t.Core.Dwell.t_dw_max)
      in
      let round_trip =
        match Core.Table_codec.table_of_string (Core.Table_codec.table_to_string t) with
        | Ok t' -> t' = t
        | Error _ -> false
      in
      let dict =
        Core.Table_codec.dictionary_words t.Core.Dwell.t_dw_min
        + Core.Table_codec.dictionary_words t.Core.Dwell.t_dw_max
      in
      let distinct =
        Core.Table_codec.distinct_values t.Core.Dwell.t_dw_min
        + Core.Table_codec.distinct_values t.Core.Dwell.t_dw_max
      in
      Printf.printf "%-5s %-14d %-12d %-12d %-10d %b\n" a.Core.App.name plain
        rle dict distinct round_trip)
    (Lazy.force apps)

(* ------------------------------------------------------------------ *)
(* Ablation: wait-time granularity (Sec. 3 trade-off) *)

let granularity () =
  section "X4"
    "Wait granularity — conservativeness vs memory (Sec. 3 trade-off)";
  Printf.printf "%-5s %-8s %-14s %-14s\n" "app" "stride" "table entries"
    "T*_w covered";
  List.iter
    (fun (a : Casestudy.app) ->
      List.iter
        (fun stride ->
          let t =
            Core.Dwell.compute ~stride a.Casestudy.plant a.Casestudy.gains
              ~j_star:a.Casestudy.j_star
          in
          Printf.printf "%-5s %-8d %-14d %-14d\n" a.Casestudy.name stride
            (Array.length t.Core.Dwell.t_dw_min)
            t.Core.Dwell.t_w_max)
        [ 1; 2; 3 ])
    [ Casestudy.c1; Casestudy.c3 ]

(* ------------------------------------------------------------------ *)
(* System-level simulation of the whole mapping *)

let system_simulation () =
  section "X5" "System simulation — both mapped slots, all six applications";
  let outcome = Core.Mapping.first_fit (Lazy.force apps) in
  (* stagger disturbances so both slots see contention *)
  let disturbances =
    [
      (0, "C1"); (0, "C3"); (2, "C4"); (4, "C5"); (1, "C2"); (9, "C6");
      (* a second wave, respecting each application's r *)
      (40, "C1"); (45, "C5"); (55, "C4");
    ]
  in
  let report = Cosim.System.of_mapping outcome ~disturbances ~horizon:110 in
  Format.printf "%a@." Cosim.System.pp report;
  Printf.printf "TT usage: %s\n"
    (String.concat ", "
       (List.map
          (fun (n, k) -> Printf.sprintf "%s=%d" n k)
          report.Cosim.System.tt_samples));
  (* replay the whole system on the reference transport and check the
     two network facts the control design rests on *)
  let bus = Flexray.Backend.default in
  Printf.printf "\nbus-level validation (%s):\n" (Bus.info bus);
  Format.printf "%a@." Cosim.Bus_check.pp (Cosim.System.bus_validate ~bus report)

(* ------------------------------------------------------------------ *)
(* Scalability beyond the paper's case study *)

let fleet_scalability () =
  section "X6" "Scalability — synthetic fleets (auto-designed gains)";
  Printf.printf
    "Each application: random 2nd-order plant, gains from Control.Design,\n\
     budget inside the achievable bracket, minimal sporadic r + slack.\n\n";
  Printf.printf "%-4s %-10s %-8s %-14s %-10s\n" "N" "gen (s)" "slots"
    "verifications" "map (s)";
  List.iter
    (fun count ->
      let t0 = Unix.gettimeofday () in
      let fleet =
        Core.Fleet.generate ~params:{ Core.Fleet.default_params with count } ()
      in
      let t1 = Unix.gettimeofday () in
      let o = Core.Mapping.first_fit fleet in
      let t2 = Unix.gettimeofday () in
      Printf.printf "%-4d %-10.1f %-8d %-14d %-10.1f\n" count (t1 -. t0)
        (List.length o.Core.Mapping.slots)
        o.Core.Mapping.verifications (t2 -. t1))
    [ 4; 6; 8 ];
  let fleet =
    Core.Fleet.generate ~params:{ Core.Fleet.default_params with count = 8 } ()
  in
  List.iter (fun a -> print_endline ("  " ^ Core.Fleet.describe a)) fleet

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

let microbench () =
  section "X7" "Bechamel micro-benchmarks of the computational kernels";
  let open Bechamel in
  let c1 = Casestudy.c1 in
  let s2 = Core.Mapping.specs_of_group (List.map find_app [ "C6"; "C2" ]) in
  let pair = Core.Mapping.specs_of_group (List.map find_app [ "C1"; "C5" ]) in
  let fig8_scenario =
    Cosim.Scenario.make
      ~apps:(List.map find_app [ "C1"; "C5"; "C4"; "C3" ])
      ~disturbances:[ (0, "C1"); (0, "C3"); (0, "C4"); (0, "C5") ]
      ~horizon:60
  in
  let zone = Ta.Dbm.up (Ta.Dbm.zero 6) in
  let tests =
    Test.make_grouped ~name:"cpsdim"
      [
        Test.make ~name:"dwell-table C1 (Table 1 row)"
          (Staged.stage (fun () ->
               ignore
                 (Core.Dwell.compute c1.Casestudy.plant c1.Casestudy.gains
                    ~j_star:c1.Casestudy.j_star)));
        Test.make ~name:"switching sim (60 samples)"
          (Staged.stage (fun () ->
               ignore (Core.Strategy.settling c1.Casestudy.plant c1.Casestudy.gains ~t_w:4 ~t_dw:4)));
        Test.make ~name:"verify S2 (discrete engine)"
          (Staged.stage (fun () -> ignore (Core.Dverify.verify s2)));
        Test.make ~name:"verify {C1,C5} (TA zones)"
          (Staged.stage (fun () ->
               ignore (Core.Ta_model.verify pair)));
        Test.make ~name:"co-simulation Fig. 8"
          (Staged.stage (fun () -> ignore (Cosim.Engine.run fig8_scenario)));
        Test.make ~name:"DBM canonicalise (7 clocks)"
          (Staged.stage (fun () ->
               ignore (Ta.Dbm.constrain zone 1 0 (Ta.Dbm.le 5))));
        Test.make ~name:"CQLF search (C1 pair)"
          (Staged.stage (fun () ->
               ignore
                 (Control.Switch_stab.is_switching_stable c1.Casestudy.plant
                    c1.Casestudy.gains)));
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~stabilize:true ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  Printf.printf "%-42s %s\n" "kernel" "time per run";
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
        let pretty =
          if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
          else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
          else Printf.sprintf "%8.2f ns" ns
        in
        Printf.printf "%-42s %s\n" name pretty
      | Some _ | None -> Printf.printf "%-42s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Snapshot plumbing shared by X8/X9/X11/X12/X13: each section writes
   its report twice — the latest value to its own BENCH_<x>.json (the
   regression baseline `cpsdim report diff` runs against) and the same
   line appended to BENCH_history.jsonl, so the trajectory of any
   metric across bench runs can be recovered with one grep. *)

let history_file = "BENCH_history.jsonl"

let write_snapshot ~file ~command =
  let report = Obs.Report.collect ~command () in
  let line = Obs.Report.json_to_string (Obs.Report.to_json report) in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc line;
      Out_channel.output_char oc '\n');
  Out_channel.with_open_gen
    [ Open_append; Open_creat; Open_text ]
    0o644 history_file
    (fun oc ->
      Out_channel.output_string oc line;
      Out_channel.output_char oc '\n');
  Printf.printf "wrote %s (appended to %s)\n" file history_file;
  report

(* ------------------------------------------------------------------ *)
(* Observability snapshot: one instrumented pass over the three
   compute-heavy engines, written to BENCH_obs.json so future changes
   have a per-engine states/sec and tables/sec trajectory to regress
   against.  Runs with obs enabled, then restores the disabled
   default so the timing sections above stay uninstrumented. *)

let obs_snapshot () =
  section "X8" "Observability snapshot — BENCH_obs.json (per-engine throughput)";
  Obs.Metric.reset ();
  Obs.Span.reset ();
  Obs.Trace_ctx.reset ();
  Obs.Trace_ctx.enable ();
  Fun.protect ~finally:Obs.Trace_ctx.disable (fun () ->
      Obs.Span.with_ "bench.obs_snapshot" (fun () ->
          let c1 = Casestudy.c1 in
          (* tables/sec: the dwell-table pre-computation engine *)
          let t0 = Unix.gettimeofday () in
          let reps = 3 in
          for _ = 1 to reps do
            ignore
              (Core.Dwell.compute c1.Casestudy.plant c1.Casestudy.gains
                 ~j_star:c1.Casestudy.j_star)
          done;
          let dt = Unix.gettimeofday () -. t0 in
          Obs.Metric.set_gauge "bench.dwell.tables_per_sec"
            (float_of_int reps /. dt);
          (* states/sec: both verification engines on S2 = {C6,C2} *)
          let s2 = Core.Mapping.specs_of_group (List.map find_app [ "C6"; "C2" ]) in
          let r = Core.Dverify.verify s2 in
          Obs.Metric.set_gauge "bench.dverify.states_per_sec"
            (float_of_int r.Core.Dverify.stats.Core.Dverify.states
            /. Float.max 1e-9 r.Core.Dverify.stats.Core.Dverify.elapsed);
          let rt = Core.Ta_model.verify s2 in
          Obs.Metric.set_gauge "bench.ta.states_per_sec"
            (float_of_int rt.Core.Ta_model.stats.Ta.Reach.states
            /. Float.max 1e-9 rt.Core.Ta_model.stats.Ta.Reach.elapsed);
          (* samples/sec: the co-simulation engine on the Fig. 8 scenario *)
          let scenario =
            Cosim.Scenario.make
              ~apps:(List.map find_app [ "C1"; "C5"; "C4"; "C3" ])
              ~disturbances:[ (0, "C1"); (0, "C3"); (0, "C4"); (0, "C5") ]
              ~horizon:60
          in
          let t0 = Unix.gettimeofday () in
          ignore (Cosim.Engine.run scenario);
          Obs.Metric.set_gauge "bench.cosim.samples_per_sec"
            (60. /. Float.max 1e-9 (Unix.gettimeofday () -. t0)));
      let report = write_snapshot ~file:"BENCH_obs.json" ~command:"bench" in
      Format.printf "%a@." Obs.Report.pp report)

(* ------------------------------------------------------------------ *)
(* Fault-campaign snapshot: a fixed-seed blackout campaign over the
   dimensioned slot groups, written to BENCH_faults.json.  The campaign
   is a pure function of (spec, seed, runs, horizon, slots), so the
   violation counts are exact regression anchors: a change in any of
   them means the fault path, the monitor, or the scheduler semantics
   moved. *)

let faults_snapshot () =
  section "X9" "Fault-campaign snapshot — BENCH_faults.json (fixed seed 42)";
  let spec =
    match Faults.Spec.parse "blackout:p=0.02,len=4" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let slots =
    [
      List.map find_app [ "C1"; "C5"; "C4"; "C3" ];
      List.map find_app [ "C6"; "C2" ];
    ]
  in
  Obs.Metric.reset ();
  Obs.Span.reset ();
  Obs.Trace_ctx.reset ();
  Obs.Trace_ctx.enable ();
  Fun.protect ~finally:Obs.Trace_ctx.disable (fun () ->
      (match
         Cosim.Campaign.run ~spec ~seed:42L ~runs:10 ~horizon:300 slots
       with
      | Error e -> failwith e
      | Ok summary ->
        Obs.Metric.set_gauge "bench.faults.total_violations"
          (float_of_int summary.Cosim.Campaign.total_violations);
        List.iter
          (fun (g : Cosim.Campaign.slot_summary) ->
            let slot = String.concat "," g.Cosim.Campaign.apps in
            let gauge kind v =
              Obs.Metric.set_gauge
                (Printf.sprintf "bench.faults.%s.%s" slot kind)
                (float_of_int v)
            in
            gauge "clean_runs" g.Cosim.Campaign.clean_runs;
            gauge "j_star" g.Cosim.Campaign.j_star;
            gauge "wait" g.Cosim.Campaign.wait;
            gauge "dwell" g.Cosim.Campaign.dwell;
            gauge "blackout_samples" g.Cosim.Campaign.blackout_samples)
          summary.Cosim.Campaign.slots;
        Format.printf "%a@." Cosim.Campaign.pp summary);
      ignore (write_snapshot ~file:"BENCH_faults.json" ~command:"bench-faults"))

(* ------------------------------------------------------------------ *)
(* The request log X11 and X17 replay: verify requests of ten
   five-application groups each over a synthetic 10k-application
   fleet, every group distinct.  Distinct names make every group
   fingerprint unique; cycling the dwell ceiling and inter-arrival
   keeps the engine from collapsing the groups by symmetry.
   [request ~mutate:i r] raises application [i]'s dwell ceiling. *)

module Serve_log = struct
  let n_apps = 10_000
  let group_size = 5
  let groups_per_req = 10
  let n_groups = n_apps / group_size
  let n_requests = n_groups / groups_per_req

  let app_json ?dw_max i =
    let dw_max = match dw_max with Some d -> d | None -> 2 + (i mod 3) in
    Printf.sprintf
      "{\"name\":\"S%d\",\"t_w_max\":1,\"t_dw_min\":[1,1],\"t_dw_max\":[1,%d],\"r\":%d}"
      i dw_max
      (9 + (i mod 7))

  let group ?mutate g =
    "["
    ^ String.concat ","
        (List.init group_size (fun k ->
             let i = (g * group_size) + k in
             if mutate = Some i then app_json ~dw_max:5 i else app_json i))
    ^ "]"

  let request ?mutate r =
    Printf.sprintf "{\"id\":%d,\"kind\":\"verify\",\"groups\":[%s]}" r
      (String.concat ","
         (List.init groups_per_req (fun k ->
              group ?mutate ((r * groups_per_req) + k))))

  let requests = lazy (List.init n_requests (fun r -> request r))

  (* one pass of [lines] through [svc]: wall clock and the responses *)
  let pass svc lines =
    let t0 = Obs.Clock.now () in
    let answers =
      List.map (fun l -> fst (Serve.Service.handle_line svc l)) lines
    in
    (Obs.Clock.now () -. t0, answers)
end

(* ------------------------------------------------------------------ *)
(* Parallel snapshot: the one parallel site left — serve's group
   shards, which spread a request's distinct groups across the pool,
   one whole verification per task — timed on X17's cold pass (every
   group reaches the engine) at 1 and 2 domains, written to
   BENCH_par.json.  Min of 3 passes per job count, alternating the
   counts so a slow host phase hits both; the responses must be
   byte-identical at both counts, or the bench fails.  The speedup is
   only meaningful with enough physical cores (bench.par.cores says how
   many this host offered). *)

let par_snapshot () =
  section "X11" "Serve's group shards — BENCH_par.json (cold pass, jobs 1/2)";
  let requests = Lazy.force Serve_log.requests in
  let cold_pass jobs =
    Par.Pool.set_default_jobs jobs;
    Serve_log.pass (Serve.Service.create ()) requests
  in
  let passes =
    Fun.protect
      ~finally:(fun () -> Par.Pool.set_default_jobs 1)
      (fun () ->
        List.concat_map
          (fun _ -> [ (1, cold_pass 1); (2, cold_pass 2) ])
          [ 1; 2; 3 ])
  in
  let reference = snd (List.assoc 1 passes) in
  List.iter
    (fun (jobs, (_, answers)) ->
      if answers <> reference then
        failwith
          (Printf.sprintf "par snapshot: jobs=%d responses diverge from jobs=1"
             jobs))
    passes;
  let best jobs =
    List.fold_left
      (fun m (j, (dt, _)) -> if j = jobs then Float.min m dt else m)
      infinity passes
  in
  let seq_s = best 1 and p2_s = best 2 in
  let cores = Domain.recommended_domain_count () in
  List.iter
    (fun (jobs, (dt, _)) -> Printf.printf "  jobs=%d cold pass %.2fs\n" jobs dt)
    passes;
  Printf.printf
    "%d requests, %d groups: jobs=1 %.2fs | jobs=2 %.2fs (%.2fx), min of 3, \
     on %d core(s)\n"
    Serve_log.n_requests Serve_log.n_groups seq_s p2_s (seq_s /. p2_s) cores;
  print_endline "responses byte-identical at jobs 1 and 2";
  Obs.Metric.reset ();
  Obs.Span.reset ();
  Obs.Trace_ctx.reset ();
  Obs.Trace_ctx.enable ();
  Fun.protect ~finally:Obs.Trace_ctx.disable (fun () ->
      Obs.Metric.set_gauge "bench.par.requests"
        (float_of_int Serve_log.n_requests);
      Obs.Metric.set_gauge "bench.par.groups" (float_of_int Serve_log.n_groups);
      Obs.Metric.set_gauge "bench.par.seq_s" seq_s;
      Obs.Metric.set_gauge "bench.par.p2_s" p2_s;
      Obs.Metric.set_gauge "bench.par.speedup_2" (seq_s /. p2_s);
      Obs.Metric.set_gauge "bench.par.responses_equal" 1.;
      Obs.Metric.set_gauge "bench.par.cores" (float_of_int cores);
      ignore (write_snapshot ~file:"BENCH_par.json" ~command:"bench-par"))

(* ------------------------------------------------------------------ *)
(* Search-engine snapshot: throughput of the unified lib/search engine
   under its two production instantiations (zone-graph reachability and
   the discrete adversary), written to BENCH_search.json.  Also asserts
   that the discrete engine, its breadth-first reference and the zone
   engine return the same Safe/Unsafe verdict on every group even
   though their state counts differ — a divergence fails the bench. *)

let search_snapshot () =
  section "X12" "Search-engine snapshot — BENCH_search.json (engine vs reference, states/sec)";
  let specs_of names = Core.Mapping.specs_of_group (List.map find_app names) in
  let s2 = specs_of [ "C6"; "C2" ] and pair = specs_of [ "C1"; "C5" ] in
  let dv_verdict (r : Core.Dverify.result) =
    match r.Core.Dverify.verdict with
    | Core.Dverify.Safe -> "safe"
    | Core.Dverify.Unsafe _ -> "unsafe"
    | Core.Dverify.Undetermined _ -> "undec"
  in
  let ta_verdict specs =
    match (Core.Ta_model.verify specs).Core.Ta_model.outcome with
    | `Safe -> "safe"
    | `Unsafe -> "unsafe"
    | `Undetermined _ -> "undec"
  in
  List.iter
    (fun (label, specs) ->
      let e = dv_verdict (Core.Dverify.verify specs)
      and r = dv_verdict (Core.Dverify.reference specs)
      and z = ta_verdict specs in
      Printf.printf "  %-12s engine=%s reference=%s | zones=%s\n" label e r z;
      if e <> r || r <> z then
        failwith
          (Printf.sprintf "search snapshot: %s verdicts disagree" label))
    [ ("S2={C6,C2}", s2); ("{C1,C5}", pair) ];
  print_endline "  verdicts agree";
  Obs.Metric.reset ();
  Obs.Span.reset ();
  Obs.Trace_ctx.reset ();
  Obs.Trace_ctx.enable ();
  Fun.protect ~finally:Obs.Trace_ctx.disable (fun () ->
      (* two gauges per engine: ".states" is an exact count the CI
         deterministic gate holds flat; ".states_per_sec" carries
         "per_sec" so the diff classifier files it under timing *)
      let gauge name (states : int) (elapsed : float) =
        let v = float_of_int states /. Float.max 1e-9 elapsed in
        Obs.Metric.set_gauge (name ^ ".states") (float_of_int states);
        Obs.Metric.set_gauge (name ^ ".states_per_sec") v;
        Printf.printf "  %-34s %9d states %10.0f states/sec\n" name states v
      in
      let r = Core.Dverify.verify s2 in
      gauge "bench.search.dverify_s2"
        r.Core.Dverify.stats.Core.Dverify.states
        r.Core.Dverify.stats.Core.Dverify.elapsed;
      let rt = Core.Ta_model.verify s2 in
      gauge "bench.search.reach_s2" rt.Core.Ta_model.stats.Ta.Reach.states
        rt.Core.Ta_model.stats.Ta.Reach.elapsed;
      let rp = Core.Ta_model.verify pair in
      gauge "bench.search.reach_c1c5" rp.Core.Ta_model.stats.Ta.Reach.states
        rp.Core.Ta_model.stats.Ta.Reach.elapsed;
      Obs.Metric.set_gauge "bench.search.order_independent" 1.;
      (* -------------------------------------------------------------- *)
      (* X15 sub-section: the engine against the breadth-first
         reference, and the mappers' analytic screen, on a homogeneous
         fleet.  Both wins ride this snapshot so the CI deterministic
         gate pins them: the state counts are exact anchors, the >= 5x
         state ratio is a floor, and a regression in either fails the
         same `report diff` leg as the engine throughput keys. *)
      section "X15"
        "Engine vs reference, and the mappers' screen — homogeneous-fleet \
         wins (gated in BENCH_search.json)";
      (* four identical apps: deterministic dwell (2 samples), worst
         interference 3 x 2 = 6 = T*_w, so exactly Safe at the
         boundary — the hardest shape for the engine's pruning and
         quotient to preserve *)
      let homog =
        Array.init 4 (fun id ->
            Sched.Appspec.make ~id
              ~name:(Printf.sprintf "H%d" (id + 1))
              ~t_w_max:6 ~t_dw_min:(Array.make 7 2)
              ~t_dw_max:(Array.make 7 2) ~r:9)
      in
      let exact = Core.Dverify.reference homog in
      let quot = Core.Dverify.verify homog in
      let verdict_tag (r : Core.Dverify.result) =
        match r.Core.Dverify.verdict with
        | Core.Dverify.Safe -> "safe"
        | Core.Dverify.Unsafe _ -> "unsafe"
        | Core.Dverify.Undetermined _ -> "undec"
      in
      if verdict_tag exact <> verdict_tag quot then
        failwith "x15: the engine's verdict differs from the reference";
      if
        exact.Core.Dverify.stats.Core.Dverify.max_wait
        <> quot.Core.Dverify.stats.Core.Dverify.max_wait
      then failwith "x15: the engine's max-wait table differs from the reference";
      gauge "bench.x15.homog4_exact" exact.Core.Dverify.stats.Core.Dverify.states
        exact.Core.Dverify.stats.Core.Dverify.elapsed;
      gauge "bench.x15.homog4_quotient"
        quot.Core.Dverify.stats.Core.Dverify.states
        quot.Core.Dverify.stats.Core.Dverify.elapsed;
      let state_ratio =
        float_of_int exact.Core.Dverify.stats.Core.Dverify.states
        /. float_of_int (max 1 quot.Core.Dverify.stats.Core.Dverify.states)
      in
      Obs.Metric.set_gauge "bench.x15.state_ratio" state_ratio;
      Printf.printf "  %-34s %13.1fx fewer states explored\n"
        "bench.x15.state_ratio" state_ratio;
      if state_ratio < 5. then
        failwith
          (Printf.sprintf "x15: engine win %.1fx below the 5x floor"
             state_ratio);
      (* mapping screen: six clones of C1 (identical timing, so every
         probed group is homogeneous) mapped with the built-in,
         screened verifier and with the bare engine passed in as the
         verifier.  Engine runs avoided = screened probes; the packing
         and the verification count must not move. *)
      let c1 = find_app "C1" in
      let clones =
        List.init 6 (fun i ->
            { c1 with Core.App.name = Printf.sprintf "H%d" (i + 1) })
      in
      let screened_counter = Obs.Metric.counter "mapping.screened" in
      let before = Obs.Metric.value screened_counter in
      let on = Core.Mapping.first_fit clones in
      let screened = Obs.Metric.value screened_counter - before in
      let off =
        Core.Mapping.first_fit ~verifier:Core.Mapping.default_verifier clones
      in
      let render o = Format.asprintf "%a" Core.Mapping.pp o in
      if render on <> render off then
        failwith "x15: analytic screen changed the packing";
      let runs_off = off.Core.Mapping.verifications in
      let runs_on = runs_off - screened in
      let run_ratio = float_of_int runs_off /. float_of_int (max 1 runs_on) in
      Obs.Metric.set_gauge "bench.x15.mapping_engine_runs_off"
        (float_of_int runs_off);
      Obs.Metric.set_gauge "bench.x15.mapping_engine_runs_on"
        (float_of_int runs_on);
      Obs.Metric.set_gauge "bench.x15.engine_run_ratio" run_ratio;
      Printf.printf
        "  %-34s %5d engine runs -> %d (%0.1fx avoided by the screen)\n"
        "bench.x15.engine_run_ratio" runs_off runs_on run_ratio;
      ignore (write_snapshot ~file:"BENCH_search.json" ~command:"bench-search"))

(* ------------------------------------------------------------------ *)
(* Persistent-cache snapshot: the full case-study pipeline (dwell
   tables + first-fit mapping) against one store file, cold then warm,
   written to BENCH_cache.json.  The verifier is wrapped in an
   engine-run counter: the warm run must answer every group from the
   store (0 engine runs) while rendering a byte-identical packing —
   either divergence fails the bench. *)

let cache_snapshot () =
  section "X13" "Persistent-cache snapshot — BENCH_cache.json (cold vs warm)";
  let path = Filename.temp_file "cpsdim-bench" ".store" in
  Sys.remove path;
  let engine_runs = ref 0 in
  let counting specs =
    incr engine_runs;
    Core.Mapping.default_verifier specs
  in
  let run () =
    match Core.Pcache.open_ ~path with
    | Error e -> failwith ("cache snapshot: " ^ e)
    | Ok pc ->
      Fun.protect
        ~finally:(fun () -> Core.Pcache.close pc)
        (fun () ->
          let t0 = Obs.Clock.now () in
          let apps =
            List.map
              (fun (a : Casestudy.app) ->
                Core.App.make
                  ~cache:(Core.Pcache.dwell_cache pc)
                  ~name:a.Casestudy.name ~plant:a.Casestudy.plant
                  ~gains:a.Casestudy.gains ~r:a.Casestudy.r
                  ~j_star:a.Casestudy.j_star ())
              Casestudy.all
          in
          let mapping =
            Core.Mapping.first_fit
              ~cache:(Core.Pcache.mapping_cache pc)
              ~verifier:counting apps
          in
          let dt = Obs.Clock.now () -. t0 in
          let entries = (Core.Pcache.stats pc).Store.entries in
          (dt, Format.asprintf "%a" Core.Mapping.pp mapping, entries))
  in
  (* obs is live across both passes, so the snapshot records the full
     hit mix: the cold pass answers every group from the engine, the
     warm pass from disk — cache.verdict.engine vs cache.verdict.disk
     in the same report, next to the store.find/append latencies *)
  Obs.Metric.reset ();
  Obs.Span.reset ();
  Obs.Trace_ctx.reset ();
  Obs.Trace_ctx.enable ();
  Fun.protect ~finally:Obs.Trace_ctx.disable (fun () ->
      engine_runs := 0;
      let cold_s, cold_out, entries = run () in
      let cold_runs = !engine_runs in
      engine_runs := 0;
      let warm_s, warm_out, _ = run () in
      let warm_runs = !engine_runs in
      List.iter Sys.remove [ path; path ^ ".lock" ];
      if not (String.equal cold_out warm_out) then
        failwith "cache snapshot: warm output diverges from cold";
      if warm_runs <> 0 then
        failwith
          (Printf.sprintf "cache snapshot: warm run performed %d engine run(s)"
             warm_runs);
      let speedup = cold_s /. Float.max 1e-9 warm_s in
      Printf.printf
        "cold %.2fs (%d engine runs) | warm %.2fs (0 engine runs, %.0fx) | %d records\n"
        cold_s cold_runs warm_s speedup entries;
      print_endline "warm packing byte-identical to cold";
      Obs.Metric.set_gauge "bench.cache.cold_s" cold_s;
      Obs.Metric.set_gauge "bench.cache.warm_s" warm_s;
      Obs.Metric.set_gauge "bench.cache.speedup" speedup;
      Obs.Metric.set_gauge "bench.cache.cold_engine_runs"
        (float_of_int cold_runs);
      Obs.Metric.set_gauge "bench.cache.warm_engine_runs"
        (float_of_int warm_runs);
      Obs.Metric.set_gauge "bench.cache.entries" (float_of_int entries);
      ignore (write_snapshot ~file:"BENCH_cache.json" ~command:"bench-cache"))

(* ------------------------------------------------------------------ *)
(* Lossy-transport sweep: the blackout campaign of X9 replayed on the
   TTW backend under increasing link-loss rates, written to
   BENCH_bus.json.  The curve of guarantee violations (and of
   transport-level overruns) against the loss rate is the dimensioning
   question the transport seam exists to answer.  The whole sweep is a
   pure function of (spec, seed, backend), so it runs twice and any
   divergence between the passes is a hard failure. *)

let bus_sweep () =
  section "X16" "Lossy-transport sweep — BENCH_bus.json (TTW, link:p=P)";
  let slots =
    [
      List.map find_app [ "C1"; "C5"; "C4"; "C3" ];
      List.map find_app [ "C6"; "C2" ];
    ]
  in
  let rates = [ 0.0; 0.05; 0.1; 0.2; 0.3 ] in
  let run_at p =
    let spec =
      match Faults.Spec.parse (Printf.sprintf "link:p=%g" p) with
      | Ok s -> s
      | Error e -> failwith e
    in
    match
      Cosim.Campaign.run ~bus:Ttw.Backend.default ~spec ~seed:42L ~runs:10
        ~horizon:300 slots
    with
    | Error e -> failwith e
    | Ok summary -> (Format.asprintf "%a" Cosim.Campaign.pp summary, summary)
  in
  let sweep () = List.map run_at rates in
  Obs.Metric.reset ();
  Obs.Span.reset ();
  Obs.Trace_ctx.reset ();
  Obs.Trace_ctx.enable ();
  Fun.protect ~finally:Obs.Trace_ctx.disable (fun () ->
      let first = sweep () and second = sweep () in
      List.iteri
        (fun i ((out1, _), (out2, _)) ->
          if not (String.equal out1 out2) then
            failwith
              (Printf.sprintf
                 "bus sweep: campaign at p=%g is nondeterministic"
                 (List.nth rates i)))
        (List.combine first second);
      Printf.printf "%8s %10s %10s %12s %10s\n" "loss p" "violations"
        "lost tx" "undelivered" "overruns";
      List.iter2
        (fun p (_, (s : Cosim.Campaign.summary)) ->
          let sum f =
            List.fold_left (fun acc g -> acc + f g) 0 s.Cosim.Campaign.slots
          in
          let lost = sum (fun g -> g.Cosim.Campaign.bus_lost_tx) in
          let undeliv = sum (fun g -> g.Cosim.Campaign.bus_undelivered) in
          let over = sum (fun g -> g.Cosim.Campaign.bus_overruns) in
          Printf.printf "%8g %10d %10d %12d %10d\n" p
            s.Cosim.Campaign.total_violations lost undeliv over;
          let gauge kind v =
            Obs.Metric.set_gauge
              (Printf.sprintf "bench.bus.ttw.p%g.%s" p kind)
              (float_of_int v)
          in
          gauge "violations" s.Cosim.Campaign.total_violations;
          gauge "lost_tx" lost;
          gauge "undelivered" undeliv;
          gauge "overruns" over)
        rates first;
      print_endline "sweep byte-identical across two passes";
      ignore (write_snapshot ~file:"BENCH_bus.json" ~command:"bench-bus"))

(* ------------------------------------------------------------------ *)
(* Resident-service snapshot: sustained request throughput of the serve
   router over a synthetic 10k-application fleet, written to
   BENCH_serve.json.  Three passes against one warm service: cold
   (every group reaches the engine), warm (the identical request log
   replayed — zero engine runs, byte-identical verdict payloads) and
   incremental (one application's timing mutated — exactly one group
   re-verified).  Any other hit mix, a payload divergence, or a warm
   speedup under 10x is a hard failure. *)

let serve_snapshot () =
  section "X17"
    "Resident-service snapshot — BENCH_serve.json (cold/warm/incremental)";
  (* the serve story shards independent groups across domains, at the
     job count of the serve-churn benchmark: more domains than cores
     would time oversubscription, not the service *)
  Par.Pool.set_default_jobs 2;
  let open Serve_log in
  let requests = Lazy.force requests in
  let payload_of line =
    match Obs.Jsonx.of_string line with
    | Ok (Obs.Jsonx.Assoc kvs) -> (
      match List.assoc_opt "output" kvs with
      | Some (Obs.Jsonx.String s) -> s
      | _ -> failwith "serve snapshot: response lacks an output payload")
    | _ -> failwith "serve snapshot: unparseable response"
  in
  Obs.Metric.reset ();
  Obs.Span.reset ();
  Obs.Trace_ctx.reset ();
  Obs.Trace_ctx.enable ();
  Fun.protect ~finally:Obs.Trace_ctx.disable (fun () ->
      let svc = Serve.Service.create () in
      let replay lines =
        let dt, answers = pass svc lines in
        (dt, List.map payload_of answers)
      in
      let cold_s, cold_payloads = replay requests in
      let cold_runs = Serve.Service.engine_runs svc in
      let warm_s, warm_payloads = replay requests in
      let warm_runs = Serve.Service.engine_runs svc - cold_runs in
      if cold_runs <> n_groups then
        failwith
          (Printf.sprintf "serve snapshot: cold pass ran the engine %d/%d times"
             cold_runs n_groups);
      if warm_runs <> 0 then
        failwith
          (Printf.sprintf "serve snapshot: warm pass ran the engine %d time(s)"
             warm_runs);
      if cold_payloads <> warm_payloads then
        failwith "serve snapshot: warm verdict payloads diverge from cold";
      (* one mutated application: its group — and only its group — is
         re-verified, the request's other groups answer from memory *)
      let before = Serve.Service.engine_runs svc in
      let incr_s, _ = replay [ request ~mutate:3 0 ] in
      let incr_runs = Serve.Service.engine_runs svc - before in
      if incr_runs <> 1 then
        failwith
          (Printf.sprintf
             "serve snapshot: one-app change re-ran the engine %d time(s)"
             incr_runs);
      let speedup = cold_s /. Float.max 1e-9 warm_s in
      if speedup < 10.0 then
        failwith
          (Printf.sprintf "serve snapshot: warm speedup %.1fx is below 10x"
             speedup);
      Printf.printf
        "%d apps in %d groups over %d requests\n\
         cold %.2fs (%d engine runs, %.0f req/s) | warm %.2fs (0 engine runs, \
         %.0f req/s, %.0fx) | incremental %d engine run\n"
        n_apps n_groups n_requests cold_s cold_runs
        (float_of_int n_requests /. Float.max 1e-9 cold_s)
        warm_s
        (float_of_int n_requests /. Float.max 1e-9 warm_s)
        speedup incr_runs;
      print_endline "warm verdict payloads byte-identical to cold";
      Obs.Metric.set_gauge "bench.serve.apps" (float_of_int n_apps);
      Obs.Metric.set_gauge "bench.serve.groups" (float_of_int n_groups);
      Obs.Metric.set_gauge "bench.serve.requests" (float_of_int n_requests);
      Obs.Metric.set_gauge "bench.serve.cold_engine_runs"
        (float_of_int cold_runs);
      Obs.Metric.set_gauge "bench.serve.warm_engine_runs"
        (float_of_int warm_runs);
      Obs.Metric.set_gauge "bench.serve.incr_engine_runs"
        (float_of_int incr_runs);
      Obs.Metric.set_gauge "bench.serve.cold_s" cold_s;
      Obs.Metric.set_gauge "bench.serve.warm_s" warm_s;
      Obs.Metric.set_gauge "bench.serve.incr_s" incr_s;
      Obs.Metric.set_gauge "bench.serve.cold_req_per_sec"
        (float_of_int n_requests /. Float.max 1e-9 cold_s);
      Obs.Metric.set_gauge "bench.serve.warm_req_per_sec"
        (float_of_int n_requests /. Float.max 1e-9 warm_s);
      Obs.Metric.set_gauge "bench.serve.warm_speedup" speedup;
      ignore (write_snapshot ~file:"BENCH_serve.json" ~command:"bench-serve"))

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("table1", table1);
    ("mapping", mapping);
    ("fig8", fig8);
    ("fig9", fig9);
    ("verify", verify_times);
    ("margins", margins);
    ("flexray", flexray_check);
    ("ablation", preemption_ablation);
    ("memory", table_memory);
    ("granularity", granularity);
    ("system", system_simulation);
    ("fleet", fleet_scalability);
    ("micro", microbench);
    ("obs", obs_snapshot);
    ("faults", faults_snapshot);
    ("par", par_snapshot);
    ("search", search_snapshot);
    ("cache", cache_snapshot);
    ("bus", bus_sweep);
    ("serve", serve_snapshot);
  ]

(* no arguments runs everything; otherwise each argument names one
   section to run (e.g. `bench par` for the parallel snapshot alone) *)
let () =
  (match Array.to_list Sys.argv with
   | [] | [ _ ] -> List.iter (fun (_, f) -> f ()) sections
   | _ :: names ->
     List.iter
       (fun name ->
         match List.assoc_opt name sections with
         | Some f -> f ()
         | None ->
           failwith
             (Printf.sprintf "unknown bench section %S (have: %s)" name
                (String.concat ", " (List.map fst sections))))
       names);
  print_newline ()
