(* Tests for the fault-injection layer: the seeded PRNG, fault spec
   parsing, plan materialisation, the fault-aware engine path, the
   online guarantee monitor, budgeted verification fallback, and
   campaign determinism. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

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
let two_names = [| ("A", 120); ("B", 120) |]

(* ------------------------------------------------------------------ *)
(* PRNG *)

let draw n rng = List.init n (fun _ -> Faults.Prng.next_int64 rng)

let test_prng_deterministic () =
  let a = draw 16 (Faults.Prng.create 42L) in
  let b = draw 16 (Faults.Prng.create 42L) in
  check_bool "same seed, same stream" true (a = b);
  let c = draw 16 (Faults.Prng.create 43L) in
  check_bool "different seed, different stream" true (a <> c)

let test_prng_split () =
  let parent = Faults.Prng.create 7L in
  let child0 = Faults.Prng.split parent 0 in
  let child1 = Faults.Prng.split parent 1 in
  check_bool "sibling streams differ" true (draw 8 child0 <> draw 8 child1);
  (* splitting and draining a child must not advance the parent *)
  let fresh = Faults.Prng.create 7L in
  check_bool "parent unperturbed by children" true
    (draw 8 parent = draw 8 fresh);
  (* the same child index always yields the same stream *)
  let again = Faults.Prng.split (Faults.Prng.create 7L) 0 in
  check_bool "child streams reproducible" true
    (draw 8 (Faults.Prng.split (Faults.Prng.create 7L) 0) = draw 8 again)

let test_prng_ranges () =
  let rng = Faults.Prng.create 1L in
  for _ = 1 to 1000 do
    let f = Faults.Prng.float rng in
    check_bool "float in [0,1)" true (f >= 0. && f < 1.);
    let i = Faults.Prng.int rng ~bound:7 in
    check_bool "int in [0,bound)" true (i >= 0 && i < 7)
  done;
  check_bool "bound <= 0 rejected" true
    (try
       ignore (Faults.Prng.int rng ~bound:0);
       false
     with Invalid_argument _ -> true);
  let rng = Faults.Prng.create 2L in
  check_bool "p=0 never fires" true
    (List.init 100 (fun _ -> Faults.Prng.bernoulli rng ~p:0.)
    |> List.for_all not);
  check_bool "p=1 always fires" true
    (List.init 100 (fun _ -> Faults.Prng.bernoulli rng ~p:1.)
    |> List.for_all Fun.id)

(* ------------------------------------------------------------------ *)
(* Spec *)

let test_spec_parse () =
  (match Faults.Spec.parse "blackout:3-7" with
  | Ok [ Faults.Spec.Blackout_window { first = 3; until = 7 } ] -> ()
  | Ok _ -> Alcotest.fail "wrong clause"
  | Error e -> Alcotest.fail e);
  (match Faults.Spec.parse "burst:A@10x3" with
  | Ok [ Faults.Spec.Burst { app = "A"; start = 10; count = 3 } ] -> ()
  | Ok _ -> Alcotest.fail "wrong clause"
  | Error e -> Alcotest.fail e);
  (match Faults.Spec.parse "link:p=0.05" with
  | Ok [ Faults.Spec.Link_loss_random { p = 0.05 } ] -> ()
  | Ok _ -> Alcotest.fail "wrong clause"
  | Error e -> Alcotest.fail e);
  (match Faults.Spec.parse "link:burst=0.2,len=4" with
  | Ok [ Faults.Spec.Link_burst { p = 0.2; len = 4 } ] -> ()
  | Ok _ -> Alcotest.fail "wrong clause"
  | Error e -> Alcotest.fail e);
  (match Faults.Spec.parse "link:burst=0.2" with
  | Ok [ Faults.Spec.Link_burst { p = 0.2; len = 3 } ] -> ()
  | Ok _ -> Alcotest.fail "default burst length is 3"
  | Error e -> Alcotest.fail e);
  match Faults.Spec.parse " blackout:p=0.1,len=4 ; loss:A@5 ; drop:B@p=0.2 " with
  | Ok
      [
        Faults.Spec.Blackout_random { p = 0.1; len = 4 };
        Faults.Spec.Et_loss_at { app = "A"; sample = 5 };
        Faults.Spec.Sensor_drop_random { app = "B"; p = 0.2 };
      ] -> ()
  | Ok _ -> Alcotest.fail "wrong clauses"
  | Error e -> Alcotest.fail e

let test_spec_roundtrip () =
  let specs =
    [
      "blackout:3-7";
      "blackout:p=0.02,len=4";
      "loss:A@5";
      "loss:A@p=0.1";
      "drop:B@9";
      "drop:B@p=0.25";
      "burst:A@10x3";
      "link:p=0.05";
      "link:burst=0.2";
      "link:burst=0.15,len=5";
      "blackout:0-2; loss:A@1; burst:B@4x2";
      "link:p=0.1; link:burst=0.2,len=2";
    ]
  in
  List.iter
    (fun s ->
      match Faults.Spec.parse s with
      | Error e -> Alcotest.fail (s ^ ": " ^ e)
      | Ok spec -> (
        match Faults.Spec.parse (Faults.Spec.to_string spec) with
        | Ok spec' -> check_bool ("round-trip " ^ s) true (spec = spec')
        | Error e -> Alcotest.fail ("re-parse " ^ s ^ ": " ^ e)))
    specs

let test_spec_errors () =
  let rejected s =
    match Faults.Spec.parse s with Error _ -> true | Ok _ -> false
  in
  check_bool "garbage" true (rejected "bogus");
  check_bool "probability > 1" true (rejected "blackout:p=1.5");
  check_bool "empty window" true (rejected "blackout:7-3");
  check_bool "negative sample" true (rejected "loss:A@-1");
  check_bool "link wants p=" true (rejected "link:0.1");
  check_bool "burst probability > 1" true (rejected "link:burst=1.5");
  check_bool "zero burst length" true (rejected "link:burst=0.2,len=0");
  check_bool "malformed burst length" true (rejected "link:burst=0.2,4")

let test_spec_is_random () =
  let parse s =
    match Faults.Spec.parse s with Ok v -> v | Error e -> Alcotest.fail e
  in
  check_bool "window is deterministic" false
    (Faults.Spec.is_random (parse "blackout:3-7; burst:A@10"));
  check_bool "probabilistic clause is random" true
    (Faults.Spec.is_random (parse "blackout:3-7; loss:A@p=0.1"));
  check_bool "link loss is random" true
    (Faults.Spec.is_random (parse "link:p=0.1"));
  check_bool "link burst is random" true
    (Faults.Spec.is_random (parse "link:burst=0.2"))

(* ------------------------------------------------------------------ *)
(* Plan materialisation *)

let materialize s ~horizon =
  match Faults.Spec.parse s with
  | Error e -> Alcotest.fail e
  | Ok spec ->
    (match
       Faults.Plan.materialize ~spec ~seed:42L ~apps:two_names ~horizon
     with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e)

let test_plan_blackout_window () =
  let plan = materialize "blackout:3-7" ~horizon:20 in
  Array.iteri
    (fun k b ->
      check_bool (Printf.sprintf "sample %d" k) (k >= 3 && k < 7) b)
    plan.Faults.Plan.blackout;
  check_int "event count" 4 (Faults.Plan.event_count plan);
  check_bool "not empty" false (Faults.Plan.is_empty plan)

let test_plan_burst_spacing () =
  (* adversary at full rate: arrivals spaced exactly r = 120 apart *)
  let plan = materialize "burst:A@10x3" ~horizon:400 in
  check_bool "arrivals at 10, 130, 250 for app 0" true
    (plan.Faults.Plan.bursts = [ (10, 0); (130, 0); (250, 0) ])

let test_plan_point_faults () =
  let plan = materialize "loss:A@4; drop:B@9" ~horizon:20 in
  Array.iteri
    (fun id row ->
      Array.iteri
        (fun k b ->
          check_bool
            (Printf.sprintf "loss %d@%d" id k)
            (id = 0 && k = 4) b)
        row)
    plan.Faults.Plan.et_loss;
  Array.iteri
    (fun id row ->
      Array.iteri
        (fun k b ->
          check_bool
            (Printf.sprintf "drop %d@%d" id k)
            (id = 1 && k = 9) b)
        row)
    plan.Faults.Plan.sensor_drop

let test_plan_link_loss () =
  (* p=1 destroys every first attempt of every app; p=0 none *)
  let all = materialize "link:p=1" ~horizon:12 in
  Array.iter
    (fun row -> Array.iter (fun b -> check_bool "p=1 fires" true b) row)
    all.Faults.Plan.et_loss;
  let none = materialize "link:p=0" ~horizon:12 in
  Array.iter
    (fun row -> Array.iter (fun b -> check_bool "p=0 silent" false b) row)
    none.Faults.Plan.et_loss;
  check_bool "sensors untouched" true
    (Array.for_all (Array.for_all not) all.Faults.Plan.sensor_drop);
  (* the mask draws one sub-stream per app id, so app 0's losses do not
     move when the app list is extended *)
  let mask apps =
    match Faults.Spec.parse "link:p=0.3" with
    | Error e -> Alcotest.fail e
    | Ok spec ->
      (match Faults.Plan.materialize ~spec ~seed:7L ~apps ~horizon:64 with
       | Ok plan -> plan.Faults.Plan.et_loss
       | Error e -> Alcotest.fail e)
  in
  let two = mask [| ("A", 120); ("B", 120) |]
  and three = mask [| ("A", 120); ("B", 120); ("C", 120) |] in
  check_bool "app 0 stream stable" true (two.(0) = three.(0));
  check_bool "app 1 stream stable" true (two.(1) = three.(1));
  check_bool "some losses at p=0.3" true
    (Array.exists (Array.exists Fun.id) two)

let test_plan_link_burst () =
  (* the clause leaves the sample masks alone and lands as (seed, p,
     len) for the replay bus, with a seed drawn from its own clause
     stream — clause-local determinism like every other clause *)
  let plan = materialize "link:burst=0.2,len=4" ~horizon:12 in
  check_bool "masks untouched" true
    (Array.for_all (Array.for_all not) plan.Faults.Plan.et_loss
    && Array.for_all (Array.for_all not) plan.Faults.Plan.sensor_drop);
  check_bool "burst-only plan is not empty" false
    (Faults.Plan.is_empty plan);
  check_int "mask events unchanged" 0 (Faults.Plan.event_count plan);
  (match plan.Faults.Plan.link_burst with
   | [ (_, 0.2, 4) ] -> ()
   | _ -> Alcotest.fail "expected one (seed, 0.2, 4) burst entry");
  check_bool "same (spec, seed) => same burst seed" true
    (plan.Faults.Plan.link_burst
    = (materialize "link:burst=0.2,len=4" ~horizon:12).Faults.Plan.link_burst);
  (* a preceding clause must not reshuffle the burst clause's stream *)
  let shifted = materialize "loss:A@3; link:burst=0.2,len=4" ~horizon:12 in
  check_bool "clause index keys the stream" true
    (List.length shifted.Faults.Plan.link_burst = 1)

let test_plan_deterministic () =
  let spec =
    match Faults.Spec.parse "blackout:p=0.05,len=3; loss:A@p=0.1" with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  let once () =
    match
      Faults.Plan.materialize ~spec ~seed:99L ~apps:two_names ~horizon:300
    with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  check_bool "same (spec, seed) => same plan" true (once () = once ())

let test_plan_errors () =
  let fails s ~horizon ~culprit =
    match Faults.Spec.parse s with
    | Error e -> Alcotest.fail e
    | Ok spec -> (
      match
        Faults.Plan.materialize ~spec ~seed:0L ~apps:two_names ~horizon
      with
      | Ok _ -> false
      | Error m -> contains m culprit)
  in
  check_bool "unknown app named" true (fails "loss:Z@4" ~horizon:20 ~culprit:"Z");
  check_bool "out-of-horizon sample" true
    (fails "loss:A@25" ~horizon:20 ~culprit:"25")

(* ------------------------------------------------------------------ *)
(* Fault-aware engine path + monitor *)

let test_zero_fault_run_matches_baseline () =
  let sc =
    Cosim.Scenario.make ~apps:two_apps
      ~disturbances:[ (0, "A"); (40, "B") ]
      ~horizon:200
  in
  let baseline = Cosim.Engine.run sc in
  let traced, summary = Cosim.Engine.run_with_faults sc in
  check_bool "trace identical to Engine.run" true (baseline = traced);
  (* the scheduled disturbances are delivered; no fault event occurred *)
  check_bool "scheduled arrivals delivered" true
    (summary.Cosim.Engine.injected = [ (0, 0); (40, 1) ]);
  check_bool "nothing suppressed or denied" true
    (summary.Cosim.Engine.suppressed = [] && summary.Cosim.Engine.denied = []);
  check_int "no blackout" 0 summary.Cosim.Engine.blackout_samples;
  check_int "no ET losses" 0 summary.Cosim.Engine.et_losses;
  check_int "no sensor drops" 0 summary.Cosim.Engine.sensor_drops;
  let report = Cosim.Monitor.check ~summary ~apps:two_apps traced in
  check_bool "verified group holds all guarantees" true report.Cosim.Monitor.ok;
  check_int "no violations" 0 (Cosim.Monitor.total_violations report)

let test_blackout_flags_affected_app () =
  (* deny the slot from A's disturbance until past its wait budget:
     precisely A must be flagged with a T*_w overrun, and B (never
     disturbed) must stay clean *)
  let twm = Core.App.t_w_max (app "A") in
  let horizon = 200 in
  let spec = [ Faults.Spec.Blackout_window { first = 10; until = 10 + twm + 4 } ] in
  let plan =
    match
      Faults.Plan.materialize ~spec ~seed:0L ~apps:two_names ~horizon
    with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  let sc =
    Cosim.Scenario.make ~apps:two_apps ~disturbances:[ (10, "A") ] ~horizon
  in
  let trace, summary = Cosim.Engine.run_with_faults ~plan sc in
  let report = Cosim.Monitor.check ~summary ~apps:two_apps trace in
  check_bool "violations detected" false report.Cosim.Monitor.ok;
  check_bool "at least one wait overrun" true
    (Cosim.Monitor.count report `Wait >= 1);
  match report.Cosim.Monitor.verdicts with
  | [ a; b ] ->
    check_bool "A flagged with the overrun" true
      (List.exists
         (function Cosim.Monitor.Wait_overrun _ -> true | _ -> false)
         a.Cosim.Monitor.violations);
    check_int "B stays clean" 0 (List.length b.Cosim.Monitor.violations)
  | _ -> Alcotest.fail "one verdict per application expected"

(* ------------------------------------------------------------------ *)
(* Budgeted verification *)

let test_dverify_state_budget () =
  let specs = Core.Mapping.specs_of_group two_apps in
  (match (Core.Dverify.verify specs).Core.Dverify.verdict with
  | Core.Dverify.Safe -> ()
  | _ -> Alcotest.fail "unbudgeted verification of a safe group");
  match (Core.Dverify.verify ~max_states:1 specs).Core.Dverify.verdict with
  | Core.Dverify.Undetermined (Core.Dverify.State_budget 1) -> ()
  | Core.Dverify.Undetermined _ -> Alcotest.fail "wrong budget reason"
  | Core.Dverify.Safe | Core.Dverify.Unsafe _ ->
    Alcotest.fail "a spent budget must yield Undetermined, never a verdict"

let test_first_fit_counts_undetermined () =
  let verifier _ = `Undetermined "always gives up" in
  let apps = [ app "A"; app "B"; app "C" ] in
  let outcome = Core.Mapping.first_fit ~verifier apps in
  (* never packed without a safety proof: every app in its own slot *)
  check_int "singleton slots" 3 (List.length outcome.Core.Mapping.slots);
  check_bool "undetermined calls counted" true
    (outcome.Core.Mapping.undetermined > 0
    && outcome.Core.Mapping.undetermined <= outcome.Core.Mapping.verifications)

(* ------------------------------------------------------------------ *)
(* Campaign *)

let test_campaign_deterministic () =
  let spec =
    match Faults.Spec.parse "blackout:p=0.05,len=3" with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  let once () =
    match
      Cosim.Campaign.run ~spec ~seed:42L ~runs:3 ~horizon:150 [ two_apps ]
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let s1 = once () and s2 = once () in
  check_bool "same arguments, same summary" true (s1 = s2);
  (match s1.Cosim.Campaign.slots with
  | [ g ] ->
    check_int "runs recorded" 3 g.Cosim.Campaign.runs;
    check_bool "accounting consistent" true
      (s1.Cosim.Campaign.total_violations
      = g.Cosim.Campaign.j_star + g.Cosim.Campaign.wait + g.Cosim.Campaign.dwell
        + g.Cosim.Campaign.suppressed)
  | _ -> Alcotest.fail "one slot summary expected");
  let other =
    match
      Cosim.Campaign.run ~spec ~seed:7L ~runs:3 ~horizon:150 [ two_apps ]
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  check_bool "seed reaches the fault draws" true
    (s1.Cosim.Campaign.slots <> other.Cosim.Campaign.slots)

let test_campaign_rejects_unknown_app () =
  let spec =
    match Faults.Spec.parse "loss:Z@4" with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  match Cosim.Campaign.run ~spec ~seed:1L ~runs:1 ~horizon:50 [ two_apps ] with
  | Ok _ -> Alcotest.fail "unknown app must not materialise"
  | Error m -> check_bool "names the culprit" true (contains m "Z")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split streams" `Quick test_prng_split;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
        ] );
      ( "spec",
        [
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "is_random" `Quick test_spec_is_random;
        ] );
      ( "plan",
        [
          Alcotest.test_case "blackout window" `Quick test_plan_blackout_window;
          Alcotest.test_case "burst spacing" `Quick test_plan_burst_spacing;
          Alcotest.test_case "point faults" `Quick test_plan_point_faults;
          Alcotest.test_case "link loss masks" `Quick test_plan_link_loss;
          Alcotest.test_case "link burst entries" `Quick test_plan_link_burst;
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "errors" `Quick test_plan_errors;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "zero-fault run matches baseline" `Quick
            test_zero_fault_run_matches_baseline;
          Alcotest.test_case "blackout flags the affected app" `Quick
            test_blackout_flags_affected_app;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "state budget undetermined" `Quick
            test_dverify_state_budget;
          Alcotest.test_case "first-fit counts undetermined" `Quick
            test_first_fit_counts_undetermined;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "rejects unknown app" `Quick
            test_campaign_rejects_unknown_app;
        ] );
    ]
