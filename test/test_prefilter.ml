(* Differential battery for the analytic pre-filter (Sched.Prefilter).

   The screen is only allowed to answer when it provably agrees with
   the exact engine, so the property under test is one-sided soundness
   in both directions:

     Analytic_safe   ==>  Dverify says Safe
     Analytic_unsafe ==>  Dverify says Unsafe

   on randomly generated slot groups, with the [Inconclusive] gap free
   to fall either way.  Hand-built cases pin the two boundaries the
   closed forms are most likely to get wrong by one: total utilisation
   exactly 1.0 (the strict reject trigger must not fire) and a busy
   window landing exactly on the deadline (<= is still an accept).
   The witness attached to a reject must itself replay to the reported
   miss under the concrete scheduler semantics. *)

let spec ~id ~name ~t_w_max ~dw_min ~dw_max ~r =
  Sched.Appspec.make ~id ~name ~t_w_max
    ~t_dw_min:(Array.make (t_w_max + 1) dw_min)
    ~t_dw_max:(Array.make (t_w_max + 1) dw_max)
    ~r

(* ------------------------------------------------------------------ *)
(* Random slot groups, engine-sized: parameters stay small enough that
   the exact verifier terminates in milliseconds, yet straddle the
   accept/reject boundary (per-app utilisation quantum/period around
   1/n each). *)

let gen_spec_params =
  QCheck2.Gen.(
    let* t_w_max = int_range 1 4 in
    let* dw_min = int_range 1 3 in
    let* dw_gap = int_range 0 2 in
    let dw_max = dw_min + dw_gap in
    (* r must exceed every t_w + t_dw_max(t_w) = t_w_max + dw_max *)
    let* slack = int_range 1 8 in
    return (t_w_max, dw_min, dw_max, t_w_max + dw_max + slack))

let gen_group =
  QCheck2.Gen.(
    let* n = int_range 2 3 in
    let* params = list_repeat n gen_spec_params in
    (* bias towards identical-parameter apps now and then: duplicating
       the head parameters exercises the symmetric region the screen
       sees most in homogeneous fleets *)
    let* clone = bool in
    let params =
      match (clone, params) with
      | true, p :: _ -> List.init n (fun _ -> p)
      | _ -> params
    in
    return
      (Array.of_list
         (List.mapi
            (fun id (t_w_max, dw_min, dw_max, r) ->
              spec ~id
                ~name:(String.make 1 (Char.chr (Char.code 'A' + id)))
                ~t_w_max ~dw_min ~dw_max ~r)
            params)))

let pp_group specs =
  String.concat "; "
    (Array.to_list
       (Array.map
          (fun (s : Sched.Appspec.t) ->
            Printf.sprintf "%s{t_w_max=%d dw=[%d,%d] r=%d}"
              s.Sched.Appspec.name s.Sched.Appspec.t_w_max
              s.Sched.Appspec.t_dw_min.(0) s.Sched.Appspec.t_dw_max.(0)
              s.Sched.Appspec.r)
          specs))

let engine_verdict specs =
  match (Core.Dverify.verify specs).Core.Dverify.verdict with
  | Core.Dverify.Safe -> `Safe
  | Core.Dverify.Unsafe _ -> `Unsafe
  | Core.Dverify.Undetermined _ -> `Undetermined

(* a rejection witness must replay step for step: same disturbance
   schedule, same states, ending in exactly the reported miss *)
let witness_replays specs (w : Sched.Prefilter.witness) =
  let rec go st = function
    | [] -> false
    | (disturbed, expected) :: rest ->
      let st', outcome = Sched.Slot_state.tick specs st ~disturbed in
      Sched.Slot_state.equal st' expected
      &&
      (match outcome.Sched.Slot_state.new_errors with
       | [] -> go st' rest
       | errs -> rest = [] && errs = w.Sched.Prefilter.failing)
  in
  go (Sched.Slot_state.initial specs) w.Sched.Prefilter.steps

let prop_soundness =
  QCheck2.Test.make ~name:"prefilter decisions agree with the exact engine"
    ~count:400 ~print:pp_group gen_group (fun specs ->
      match Sched.Prefilter.decide specs with
      | Sched.Prefilter.Inconclusive -> true
      | Sched.Prefilter.Analytic_safe -> (
        match engine_verdict specs with
        | `Safe -> true
        | _ ->
          QCheck2.Test.fail_report
            "screen accepted a group the engine does not prove safe")
      | Sched.Prefilter.Analytic_unsafe w -> (
        if not (witness_replays specs w) then
          QCheck2.Test.fail_report "rejection witness does not replay";
        match engine_verdict specs with
        | `Unsafe -> true
        | _ ->
          QCheck2.Test.fail_report
            "screen rejected a group the engine does not refute"))

(* accepted groups must also agree under the lazy-preemption policy
   when screened for it (the quantum switches to the max dwell) *)
let prop_soundness_lazy =
  QCheck2.Test.make ~name:"lazy-policy accepts imply lazy-engine Safe"
    ~count:150 ~print:pp_group gen_group (fun specs ->
      match
        Sched.Prefilter.decide ~policy:Sched.Slot_state.Lazy_preempt specs
      with
      | Sched.Prefilter.Analytic_safe -> (
        match
          (Core.Dverify.verify ~policy:Sched.Slot_state.Lazy_preempt specs)
            .Core.Dverify.verdict
        with
        | Core.Dverify.Safe -> true
        | _ ->
          QCheck2.Test.fail_report
            "lazy-policy accept contradicts the lazy engine")
      | Sched.Prefilter.Analytic_unsafe w ->
        (* the witness simulates under the same policy, so it must hold
           for the lazy engine too *)
        (match
           (Core.Dverify.verify ~policy:Sched.Slot_state.Lazy_preempt specs)
             .Core.Dverify.verdict
         with
         | Core.Dverify.Unsafe _ -> ignore w; true
         | _ ->
           QCheck2.Test.fail_report
             "lazy-policy reject contradicts the lazy engine")
      | Sched.Prefilter.Inconclusive -> true)

(* ------------------------------------------------------------------ *)
(* Boundary pins *)

(* two identical apps, dwell exactly 3, period r - t_w_max = 6: each
   contributes utilisation 3/6, total exactly 1.0 — and the busy window
   of each app is exactly its deadline (one competitor grant of 3
   samples, then service at wait 3 = T*_w).  Accept must fire; the
   strict utilisation trigger must not. *)
let boundary_tight =
  lazy
    [|
      spec ~id:0 ~name:"A" ~t_w_max:3 ~dw_min:3 ~dw_max:3 ~r:9;
      spec ~id:1 ~name:"B" ~t_w_max:3 ~dw_min:3 ~dw_max:3 ~r:9;
    |]

let test_busy_window_equals_deadline () =
  let g = Lazy.force boundary_tight in
  Alcotest.(check (option int))
    "busy window lands exactly on T*_w" (Some 3)
    (Sched.Prefilter.busy_window g 0);
  (match Sched.Prefilter.decide g with
   | Sched.Prefilter.Analytic_safe -> ()
   | _ -> Alcotest.fail "boundary group must be accepted");
  (match engine_verdict g with
   | `Safe -> ()
   | _ -> Alcotest.fail "engine must confirm the boundary accept")

let test_utilisation_exactly_one_not_rejected () =
  let g = Lazy.force boundary_tight in
  Alcotest.(check bool)
    "no rejection witness at utilisation 1.0" true
    (Sched.Prefilter.rejects g = None)

(* push one sample over the edge: same dwell demand against a deadline
   of 2 — the burst trigger fires, saturation exhibits the miss, and
   the engine agrees *)
let test_over_the_boundary_rejected () =
  let g =
    [|
      spec ~id:0 ~name:"A" ~t_w_max:2 ~dw_min:3 ~dw_max:3 ~r:9;
      spec ~id:1 ~name:"B" ~t_w_max:2 ~dw_min:3 ~dw_max:3 ~r:9;
    |]
  in
  Alcotest.(check (option int))
    "busy window overruns the deadline" None
    (Sched.Prefilter.busy_window g 0);
  (match Sched.Prefilter.decide g with
   | Sched.Prefilter.Analytic_unsafe w ->
     Alcotest.(check bool) "witness replays" true (witness_replays g w)
   | _ -> Alcotest.fail "overloaded boundary group must be rejected");
  match engine_verdict g with
  | `Unsafe -> ()
  | _ -> Alcotest.fail "engine must confirm the boundary reject"

(* utilisation exactly 1.0 spread over three apps, with a busy window
   beyond the deadline: the sufficient test cannot accept, the strict
   utilisation trigger is silent, but the burst trigger fires and the
   saturation schedule finds the real miss *)
let test_three_way_saturation () =
  let g =
    [|
      spec ~id:0 ~name:"A" ~t_w_max:3 ~dw_min:2 ~dw_max:2 ~r:9;
      spec ~id:1 ~name:"B" ~t_w_max:3 ~dw_min:2 ~dw_max:2 ~r:9;
      spec ~id:2 ~name:"C" ~t_w_max:3 ~dw_min:2 ~dw_max:2 ~r:9;
    |]
  in
  (match Sched.Prefilter.decide g with
   | Sched.Prefilter.Analytic_unsafe w ->
     Alcotest.(check bool) "witness replays" true (witness_replays g w)
   | Sched.Prefilter.Analytic_safe ->
     Alcotest.fail "three saturating apps cannot be accepted"
   | Sched.Prefilter.Inconclusive ->
     Alcotest.fail "three saturating apps must be rejected analytically");
  match engine_verdict g with
  | `Unsafe -> ()
  | _ -> Alcotest.fail "engine must confirm the three-way reject"

(* a single app is trivially safe whatever its parameters: the
   interference sum is empty, so the busy window is 0 *)
let test_singleton_accepted () =
  let g = [| spec ~id:0 ~name:"A" ~t_w_max:2 ~dw_min:4 ~dw_max:5 ~r:20 |] in
  Alcotest.(check (option int))
    "empty interference" (Some 0)
    (Sched.Prefilter.busy_window g 0);
  match Sched.Prefilter.decide g with
  | Sched.Prefilter.Analytic_safe -> ()
  | _ -> Alcotest.fail "singleton must be accepted"

(* the screen must never flip a packing: first-fit over the case study
   with it (the built-in verifier) and without it (the same engine
   passed as a caller-supplied verifier) is identical, verification
   counts included *)
let test_mapping_invariant_under_screen () =
  let apps =
    List.map
      (fun name ->
        let a = Casestudy.find name in
        Core.App.make ~name:a.Casestudy.name ~plant:a.Casestudy.plant
          ~gains:a.Casestudy.gains ~r:a.Casestudy.r ~j_star:a.Casestudy.j_star
          ())
      [ "C1"; "C2"; "C3"; "C4"; "C5"; "C6" ]
  in
  let render (o : Core.Mapping.outcome) =
    Format.asprintf "%a" Core.Mapping.pp o
  in
  let on = Core.Mapping.first_fit apps in
  let off = Core.Mapping.first_fit ~verifier:Core.Mapping.default_verifier apps in
  Alcotest.(check string)
    "identical packing and counts with the screen on and off" (render off)
    (render on);
  let opt_on = Core.Mapping.optimal apps in
  let opt_off =
    Core.Mapping.optimal ~verifier:Core.Mapping.default_verifier apps
  in
  Alcotest.(check string)
    "identical optimal partition with the screen on and off" (render opt_off)
    (render opt_on)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "prefilter"
    [
      ( "soundness",
        List.map QCheck_alcotest.to_alcotest
          [ prop_soundness; prop_soundness_lazy ] );
      ( "boundaries",
        [
          Alcotest.test_case "busy window == deadline accepts" `Quick
            test_busy_window_equals_deadline;
          Alcotest.test_case "utilisation 1.0 not rejected" `Quick
            test_utilisation_exactly_one_not_rejected;
          Alcotest.test_case "one past the boundary rejects" `Quick
            test_over_the_boundary_rejected;
          Alcotest.test_case "three-way saturation rejects" `Quick
            test_three_way_saturation;
          Alcotest.test_case "singleton accepts" `Quick test_singleton_accepted;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "screen cannot change a packing" `Quick
            test_mapping_invariant_under_screen;
        ] );
    ]
