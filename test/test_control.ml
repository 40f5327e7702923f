(* Tests for the control substrate: plants, feedback, pole placement,
   LQR, switched simulation, settling, switching stability. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))

let double_integrator =
  (* x1' = x1 + h x2, x2' = x2 + h u with h = 0.1 *)
  Control.Plant.make
    ~phi:(Linalg.Mat.of_rows [ [ 1.; 0.1 ]; [ 0.; 1. ] ])
    ~gamma:[| 0.; 0.1 |] ~c:[| 1.; 0. |] ~h:0.1

let scalar_plant = Control.Plant.scalar ~phi:0.9 ~gamma:0.5 ~c:1. ~h:0.02

(* ------------------------------------------------------------------ *)
(* Plant *)

let test_plant_basics () =
  check_int "order" 2 (Control.Plant.order double_integrator);
  let x = [| 1.; 2. |] in
  let x' = Control.Plant.step double_integrator x 0.5 in
  check_float "x1'" 1.2 x'.(0);
  check_float "x2'" 2.05 x'.(1);
  check_float "output" 1. (Control.Plant.output double_integrator x)

let test_plant_validation () =
  Alcotest.check_raises "gamma dim" (Invalid_argument "Plant.make: gamma dimension")
    (fun () ->
      ignore
        (Control.Plant.make
           ~phi:(Linalg.Mat.identity 2)
           ~gamma:[| 1. |] ~c:[| 1.; 0. |] ~h:0.1));
  Alcotest.check_raises "bad h"
    (Invalid_argument "Plant.make: non-positive sampling period") (fun () ->
      ignore
        (Control.Plant.make
           ~phi:(Linalg.Mat.identity 1)
           ~gamma:[| 1. |] ~c:[| 1. |] ~h:0.))

let test_plant_stability () =
  check_bool "stable scalar" true (Control.Plant.is_open_loop_stable scalar_plant);
  check_bool "integrator not stable" false
    (Control.Plant.is_open_loop_stable double_integrator)

(* ------------------------------------------------------------------ *)
(* Feedback *)

let test_closed_loop_tt () =
  let k = [| 0.2 |] in
  let cl = Control.Feedback.closed_loop_tt scalar_plant k in
  check_float "phi - gamma k" (0.9 -. (0.5 *. 0.2)) (Linalg.Mat.get cl 0 0)

let test_augmented_shapes () =
  let phi_a, gamma_a = Control.Feedback.augmented_open_loop double_integrator in
  check_int "aug rows" 3 (Linalg.Mat.rows phi_a);
  check_float "gamma coupling" 0.1 (Linalg.Mat.get phi_a 1 2);
  check_float "input enters u-state" 1. gamma_a.(2);
  check_float "u-state no self" 0. (Linalg.Mat.get phi_a 2 2)

let test_closed_loop_et_dynamics () =
  (* applying the augmented closed loop must equal the two-step manual
     computation of eq. (4)-(5) *)
  let ke = [| 0.3; 0.1 |] in
  let a = Control.Feedback.closed_loop_et scalar_plant ke in
  let z = [| 2.; 0.5 |] in
  let z' = Linalg.Mat.mul_vec a z in
  (* x' = 0.9*2 + 0.5*0.5, u' = -(0.3*2 + 0.1*0.5) *)
  check_float "x'" 2.05 z'.(0);
  check_float "u'" (-0.65) z'.(1)

let test_tt_augmented_consistency () =
  (* the augmented TT loop's x-block must equal the plain TT loop *)
  let kt = [| 1.0; 0.5 |] in
  let plain = Control.Feedback.closed_loop_tt double_integrator kt in
  let aug = Control.Feedback.closed_loop_tt_augmented double_integrator kt in
  for i = 0 to 1 do
    for j = 0 to 1 do
      check_float "block match" (Linalg.Mat.get plain i j) (Linalg.Mat.get aug i j)
    done;
    check_float "u column zero" 0. (Linalg.Mat.get aug i 2)
  done;
  check_float "u row is -kt" (-1.0) (Linalg.Mat.get aug 2 0)

(* ------------------------------------------------------------------ *)
(* Controllability and pole placement *)

let test_controllability () =
  check_bool "double integrator controllable" true
    (Control.Ctrb.is_controllable double_integrator.Control.Plant.phi
       double_integrator.Control.Plant.gamma);
  (* a mode decoupled from the input *)
  let a = Linalg.Mat.of_rows [ [ 0.5; 0. ]; [ 0.; 0.7 ] ] in
  check_bool "uncontrollable" false (Control.Ctrb.is_controllable a [| 1.; 0. |])

let test_ackermann_places_poles () =
  let poles = [ (0.2, 0.); (0.4, 0.) ] in
  let k = Control.Pole_place.place_tt double_integrator poles in
  let cl = Control.Feedback.closed_loop_tt double_integrator k in
  let eigs = Linalg.Eig.eigenvalues cl in
  let mods = List.map Complex.norm eigs |> List.sort compare in
  (match mods with
   | [ a; b ] ->
     check_float_loose "pole 1" 0.2 a;
     check_float_loose "pole 2" 0.4 b
   | _ -> Alcotest.fail "expected 2 eigenvalues");
  check_bool "stable" true (Linalg.Eig.is_schur_stable cl)

let test_ackermann_complex_poles () =
  let poles = [ (0.3, 0.2) ] in
  (* conjugate pair counts twice *)
  let k = Control.Pole_place.place_tt double_integrator poles in
  let cl = Control.Feedback.closed_loop_tt double_integrator k in
  match Linalg.Eig.eigenvalues cl with
  | [ z1; z2 ] ->
    check_float_loose "re" 0.3 z1.Complex.re;
    check_float_loose "conj" 0.3 z2.Complex.re;
    check_float_loose "im magnitude" 0.2 (Float.abs z1.Complex.im)
  | _ -> Alcotest.fail "expected 2 eigenvalues"

let test_ackermann_et_design () =
  (* design a delayed-mode controller and check stability *)
  let poles = [ (0.1, 0.); (0.2, 0.); (0.3, 0.) ] in
  let ke = Control.Pole_place.place_et double_integrator poles in
  check_int "gain dimension" 3 (Linalg.Vec.dim ke);
  let cl = Control.Feedback.closed_loop_et double_integrator ke in
  check_bool "stable" true (Linalg.Eig.is_schur_stable cl)

let test_ackermann_uncontrollable () =
  let a = Linalg.Mat.of_rows [ [ 0.5; 0. ]; [ 0.; 0.7 ] ] in
  Alcotest.check_raises "uncontrollable" Control.Pole_place.Uncontrollable
    (fun () ->
      ignore (Control.Pole_place.place a [| 1.; 0. |] [ (0.1, 0.); (0.2, 0.) ]))

let test_pole_count_mismatch () =
  check_bool "wrong count raises" true
    (try
       ignore (Control.Pole_place.place_tt double_integrator [ (0.1, 0.) ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* LQR *)

let test_lqr_stabilizes () =
  let k = Control.Lqr.gain_tt double_integrator in
  let cl = Control.Feedback.closed_loop_tt double_integrator k in
  check_bool "stable" true (Linalg.Eig.is_schur_stable cl)

let test_lqr_riccati_fixed_point () =
  let a = double_integrator.Control.Plant.phi
  and b = double_integrator.Control.Plant.gamma in
  let q = Linalg.Mat.identity 2 and r = 1. in
  let k, p = Control.Lqr.solve ~a ~b ~q ~r () in
  (* p must satisfy the Riccati equation: p = q + a'pa - a'pb k *)
  let at = Linalg.Mat.transpose a in
  let pa = Linalg.Mat.mul p a in
  let apa = Linalg.Mat.mul at pa in
  let pb = Linalg.Mat.mul_vec p b in
  let apb = Linalg.Mat.mul_vec at pb in
  let rhs = Linalg.Mat.add q (Linalg.Mat.sub apa (Linalg.Mat.outer apb k)) in
  check_bool "riccati residual" true (Linalg.Mat.approx_equal ~tol:1e-8 p rhs)

let test_lqr_et_mode () =
  let k = Control.Lqr.gain_et double_integrator in
  check_int "augmented gain" 3 (Linalg.Vec.dim k);
  let cl = Control.Feedback.closed_loop_et double_integrator k in
  check_bool "stable" true (Linalg.Eig.is_schur_stable cl)

(* ------------------------------------------------------------------ *)
(* Switched simulation *)

let stable_gains =
  let kt = Control.Pole_place.place_tt double_integrator [ (0.1, 0.); (0.2, 0.) ] in
  let ke =
    Control.Pole_place.place_et double_integrator
      [ (0.5, 0.); (0.6, 0.); (0.4, 0.) ]
  in
  Control.Switched.make_gains double_integrator ~kt ~ke

let test_switched_mt_matches_closed_loop () =
  let s0 = Control.Switched.disturbed double_integrator in
  let states =
    Control.Switched.run_states double_integrator stable_gains
      (Core.Strategy.pure Control.Switched.Mt) s0 5
  in
  let cl = Control.Feedback.closed_loop_tt double_integrator stable_gains.Control.Switched.kt in
  let expected = ref s0.Control.Switched.x in
  Array.iteri
    (fun k st ->
      if k > 0 then expected := Linalg.Mat.mul_vec cl !expected;
      check_bool
        (Printf.sprintf "state %d" k)
        true
        (Linalg.Vec.approx_equal ~tol:1e-9 st.Control.Switched.x !expected))
    states

let test_switched_me_matches_augmented () =
  let s0 = Control.Switched.disturbed double_integrator in
  let a = Control.Feedback.closed_loop_et double_integrator stable_gains.Control.Switched.ke in
  let z = ref [| 1.; 0.; 0. |] in
  let states =
    Control.Switched.run_states double_integrator stable_gains
      (Core.Strategy.pure Control.Switched.Me) s0 6
  in
  Array.iteri
    (fun k st ->
      if k > 0 then z := Linalg.Mat.mul_vec a !z;
      check_float "x1" !z.(0) st.Control.Switched.x.(0);
      check_float "u_prev" !z.(2) st.Control.Switched.u_prev)
    states

let test_switched_mode_equal () =
  check_bool "mt=mt" true (Control.Switched.mode_equal Control.Switched.Mt Control.Switched.Mt);
  check_bool "mt<>me" false (Control.Switched.mode_equal Control.Switched.Mt Control.Switched.Me)

let test_switched_holds_input_across_switch () =
  (* first ME sample after MT must apply the last TT input *)
  let s0 = Control.Switched.disturbed double_integrator in
  let after_mt = Control.Switched.step double_integrator stable_gains Control.Switched.Mt s0 in
  let after_me = Control.Switched.step double_integrator stable_gains Control.Switched.Me after_mt in
  let expected = Control.Plant.step double_integrator after_mt.Control.Switched.x after_mt.Control.Switched.u_prev in
  check_bool "held input" true (Linalg.Vec.approx_equal expected after_me.Control.Switched.x)

(* ------------------------------------------------------------------ *)
(* Settling *)

let test_settling_basic () =
  let y = [| 1.0; 0.5; 0.01; 0.005; 0.001 |] in
  check_bool "settles at 2" true (Control.Settle.settling_index y = Some 2)

let test_settling_relapse () =
  (* a dip back above the band moves the settling index *)
  let y = [| 1.0; 0.01; 0.5; 0.01; 0.001 |] in
  check_bool "settles at 3" true (Control.Settle.settling_index y = Some 3)

let test_settling_never () =
  let y = [| 1.0; 0.5; 0.3 |] in
  check_bool "no settling" true (Control.Settle.settling_index y = None)

let test_settling_immediate () =
  let y = [| 0.001; 0.002 |] in
  check_bool "settled from start" true (Control.Settle.settling_index y = Some 0)

let test_settling_threshold_and_time () =
  let y = [| 1.0; 0.05; 0.01 |] in
  check_float "the paper's band" 0.02 Control.Settle.threshold;
  check_bool "0.05 is outside the band" true
    (Control.Settle.settling_index y = Some 2);
  check_float "peak" 1.0 (Control.Settle.peak y)

(* ------------------------------------------------------------------ *)
(* Switching stability (paper Sec. 3.1) *)

let test_c1_stable_pair_has_certificate () =
  let app = Casestudy.c1 in
  match Control.Switch_stab.analyze app.Casestudy.plant app.Casestudy.gains with
  | Control.Switch_stab.Common_lyapunov p ->
    check_bool "certificate PD" true (Linalg.Lyapunov.is_positive_definite p);
    let a_tt, a_et = Control.Switch_stab.closed_loops app.Casestudy.plant app.Casestudy.gains in
    let dec a =
      Linalg.Lyapunov.is_negative_definite
        (Linalg.Mat.sub (Linalg.Mat.mul (Linalg.Mat.transpose a) (Linalg.Mat.mul p a)) p)
    in
    check_bool "decreases TT" true (dec a_tt);
    check_bool "decreases ET" true (dec a_et)
  | Control.Switch_stab.Stable_modes -> Alcotest.fail "expected a certificate"
  | Control.Switch_stab.Unstable_mode _ -> Alcotest.fail "modes must be stable"

let test_c1_unstable_pair_no_certificate () =
  let app = Casestudy.c1 in
  match Control.Switch_stab.analyze app.Casestudy.plant Casestudy.c1_unstable_pair with
  | Control.Switch_stab.Stable_modes -> ()
  | Control.Switch_stab.Common_lyapunov _ ->
    Alcotest.fail "K^u_E pair should have no certificate"
  | Control.Switch_stab.Unstable_mode _ -> Alcotest.fail "modes are individually stable"

let test_unstable_mode_detected () =
  let bad_gains =
    Control.Switched.make_gains scalar_plant ~kt:[| -10. |] ~ke:[| 0.1; 0.1 |]
  in
  match Control.Switch_stab.analyze scalar_plant bad_gains with
  | Control.Switch_stab.Unstable_mode m ->
    check_bool "TT mode" true (Control.Switched.mode_equal m Control.Switched.Mt)
  | Control.Switch_stab.Common_lyapunov _ | Control.Switch_stab.Stable_modes ->
    Alcotest.fail "expected unstable mode"

(* ------------------------------------------------------------------ *)
(* Continuous models and discretisation *)

let test_expm_diagonal () =
  let a = Linalg.Mat.of_rows [ [ 1.; 0. ]; [ 0.; 2. ] ] in
  let e = Linalg.Expm.expm a in
  check_float_loose "e^1" (exp 1.) (Linalg.Mat.get e 0 0);
  check_float_loose "e^2" (exp 2.) (Linalg.Mat.get e 1 1);
  check_float "off-diagonal" 0. (Linalg.Mat.get e 0 1)

let test_expm_nilpotent () =
  (* exp of a strictly upper triangular matrix is exact polynomial *)
  let a = Linalg.Mat.of_rows [ [ 0.; 1. ]; [ 0.; 0. ] ] in
  let e = Linalg.Expm.expm a in
  check_float_loose "shear" 1. (Linalg.Mat.get e 0 1);
  check_float_loose "diag" 1. (Linalg.Mat.get e 0 0)

let test_expm_inverse_property () =
  let a = Linalg.Mat.of_rows [ [ 0.3; -1.2 ]; [ 0.7; -0.1 ] ] in
  let p = Linalg.Mat.mul (Linalg.Expm.expm a) (Linalg.Expm.expm (Linalg.Mat.scale (-1.) a)) in
  check_bool "exp(A)exp(-A)=I" true
    (Linalg.Mat.approx_equal ~tol:1e-9 p (Linalg.Mat.identity 2))

let test_zoh_matches_euler () =
  let m = Control.Continuous.dc_motor_position () in
  let pm = Control.Continuous.discretize m ~h:0.02 in
  let fine = 4000 in
  let dt = 0.02 /. float_of_int fine in
  let x = ref [| 0.; 0.; 0. |] in
  for _ = 1 to fine do
    let dx =
      Linalg.Vec.axpy 1.0 m.Control.Continuous.b
        (Linalg.Mat.mul_vec m.Control.Continuous.a !x)
    in
    x := Linalg.Vec.axpy dt dx !x
  done;
  let xd = Control.Plant.step pm [| 0.; 0.; 0. |] 1.0 in
  check_bool "zoh ~ fine euler" true (Linalg.Vec.approx_equal ~tol:1e-5 !x xd)

let test_cruise_discretisation_is_paper_c6 () =
  (* validates the C6 sign correction: e^{-0.001} = +0.999 *)
  let p = Control.Continuous.discretize (Control.Continuous.cruise_control ()) ~h:0.02 in
  check_bool "phi" true
    (Float.abs (Linalg.Mat.get p.Control.Plant.phi 0 0 -. 0.999) < 5e-7);
  check_bool "gamma" true
    (Float.abs (p.Control.Plant.gamma.(0) -. 1.999e-5) < 5e-10)

let test_speed_motor_discretisation_is_paper_c4 () =
  (* the paper's C4 is the CTMS DC-motor speed model at default
     parameters; the printed matrix is its ZOH discretisation *)
  let p = Control.Continuous.discretize (Control.Continuous.dc_motor_speed ()) ~h:0.02 in
  let c4 = (Casestudy.find "C4").Casestudy.plant in
  check_bool "phi matches" true
    (Linalg.Mat.approx_equal ~tol:5e-4 p.Control.Plant.phi c4.Control.Plant.phi);
  check_bool "gamma matches" true
    (Linalg.Vec.approx_equal ~tol:5e-4 p.Control.Plant.gamma c4.Control.Plant.gamma)

(* ------------------------------------------------------------------ *)
(* Design synthesis *)

let test_design_c1_plant () =
  let c1 = Casestudy.c1 in
  match Control.Design.synthesize c1.Casestudy.plant ~j_star:c1.Casestudy.j_star with
  | Error e -> Alcotest.fail e
  | Ok g ->
    let jt =
      Control.Settle.settling_index
        (Control.Switched.run c1.Casestudy.plant g
           (fun _ -> Control.Switched.Mt)
           (Control.Switched.disturbed c1.Casestudy.plant)
           300)
    in
    let je =
      Control.Settle.settling_index
        (Control.Switched.run c1.Casestudy.plant g
           (fun _ -> Control.Switched.Me)
           (Control.Switched.disturbed c1.Casestudy.plant)
           600)
    in
    (match (jt, je) with
     | Some jt, Some je ->
       check_bool "bracket" true (jt <= c1.Casestudy.j_star && c1.Casestudy.j_star < je)
     | _ -> Alcotest.fail "modes must settle")

let test_design_trace_records_rejections () =
  let o = Control.Design.search double_integrator ~j_star:20 in
  check_bool "non-empty trace" true (o.Control.Design.trace <> []);
  (match o.Control.Design.gains with
   | Some _ ->
     check_bool "accepted or fallback recorded" true
       (List.exists
          (fun c ->
            match c.Control.Design.verdict with
            | `Accepted -> true
            | `Rejected r -> String.equal r "no common Lyapunov certificate")
          o.Control.Design.trace)
   | None -> ())

let test_design_requires_controllable () =
  let p =
    Control.Plant.make
      ~phi:(Linalg.Mat.of_rows [ [ 0.5; 0. ]; [ 0.; 0.7 ] ])
      ~gamma:[| 1.; 0. |] ~c:[| 1.; 0. |] ~h:0.02
  in
  check_bool "raises" true
    (try
       ignore (Control.Design.search p ~j_star:10);
       false
     with Invalid_argument _ -> true)

let test_design_cqlf_required_mode () =
  (* with require_cqlf the search may fail; without it the same grid
     must do at least as well *)
  let soft = Control.Design.synthesize double_integrator ~j_star:20 in
  let hard =
    Control.Design.synthesize ~require_cqlf:true double_integrator ~j_star:20
  in
  (match (soft, hard) with
   | Error _, Ok _ -> Alcotest.fail "hard mode cannot beat soft mode"
   | _ -> ())

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_stable_poles n =
  QCheck2.Gen.(list_size (return n) (float_range 0.05 0.9))

let prop_pole_placement_roundtrip =
  QCheck2.Test.make ~name:"Ackermann places requested real poles" ~count:50
    (gen_stable_poles 2) (fun poles ->
      let poles = List.map (fun p -> (p, 0.)) poles in
      let k = Control.Pole_place.place_tt double_integrator poles in
      let cl = Control.Feedback.closed_loop_tt double_integrator k in
      let got =
        Linalg.Eig.eigenvalues cl |> List.map Complex.norm |> List.sort compare
      in
      let want = List.map (fun (p, _) -> p) poles |> List.sort compare in
      List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-4) got want)

let prop_switched_linear_in_state =
  QCheck2.Test.make ~name:"switched trajectories are linear in x0" ~count:40
    QCheck2.Gen.(pair (float_range (-2.) 2.) (float_range (-2.) 2.))
    (fun (a, b) ->
      let x0 = [| a; b |] in
      let modes k = if k mod 3 = 0 then Control.Switched.Mt else Control.Switched.Me in
      let run x =
        Control.Switched.run double_integrator stable_gains modes
          (Control.Switched.initial x) 10
      in
      let y1 = run x0 in
      let y2 = run (Linalg.Vec.scale 2. x0) in
      Array.for_all2 (fun u v -> Float.abs ((2. *. u) -. v) < 1e-9) y1 y2)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pole_placement_roundtrip;
      prop_switched_linear_in_state;
    ]

let () =
  Alcotest.run "control"
    [
      ( "plant",
        [
          Alcotest.test_case "basics" `Quick test_plant_basics;
          Alcotest.test_case "validation" `Quick test_plant_validation;
          Alcotest.test_case "stability" `Quick test_plant_stability;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "TT closed loop" `Quick test_closed_loop_tt;
          Alcotest.test_case "augmented shapes" `Quick test_augmented_shapes;
          Alcotest.test_case "ET dynamics" `Quick test_closed_loop_et_dynamics;
          Alcotest.test_case "TT on augmented state" `Quick test_tt_augmented_consistency;
        ] );
      ( "pole placement",
        [
          Alcotest.test_case "controllability" `Quick test_controllability;
          Alcotest.test_case "real poles" `Quick test_ackermann_places_poles;
          Alcotest.test_case "complex poles" `Quick test_ackermann_complex_poles;
          Alcotest.test_case "delayed mode design" `Quick test_ackermann_et_design;
          Alcotest.test_case "uncontrollable" `Quick test_ackermann_uncontrollable;
          Alcotest.test_case "pole count" `Quick test_pole_count_mismatch;
        ] );
      ( "lqr",
        [
          Alcotest.test_case "stabilises" `Quick test_lqr_stabilizes;
          Alcotest.test_case "riccati fixed point" `Quick test_lqr_riccati_fixed_point;
          Alcotest.test_case "delayed mode" `Quick test_lqr_et_mode;
        ] );
      ( "switched",
        [
          Alcotest.test_case "MT equals closed loop" `Quick test_switched_mt_matches_closed_loop;
          Alcotest.test_case "ME equals augmented loop" `Quick test_switched_me_matches_augmented;
          Alcotest.test_case "mode equality" `Quick test_switched_mode_equal;
          Alcotest.test_case "input held across switch" `Quick test_switched_holds_input_across_switch;
        ] );
      ( "settle",
        [
          Alcotest.test_case "basic" `Quick test_settling_basic;
          Alcotest.test_case "relapse" `Quick test_settling_relapse;
          Alcotest.test_case "never" `Quick test_settling_never;
          Alcotest.test_case "immediate" `Quick test_settling_immediate;
          Alcotest.test_case "threshold and helpers" `Quick test_settling_threshold_and_time;
        ] );
      ( "continuous",
        [
          Alcotest.test_case "expm diagonal" `Quick test_expm_diagonal;
          Alcotest.test_case "expm nilpotent" `Quick test_expm_nilpotent;
          Alcotest.test_case "expm inverse" `Quick test_expm_inverse_property;
          Alcotest.test_case "zoh vs euler" `Quick test_zoh_matches_euler;
          Alcotest.test_case "cruise = paper C6" `Quick test_cruise_discretisation_is_paper_c6;
          Alcotest.test_case "speed motor = paper C4" `Quick test_speed_motor_discretisation_is_paper_c4;
        ] );
      ( "design",
        [
          Alcotest.test_case "C1 plant" `Quick test_design_c1_plant;
          Alcotest.test_case "trace records" `Quick test_design_trace_records_rejections;
          Alcotest.test_case "uncontrollable rejected" `Quick test_design_requires_controllable;
          Alcotest.test_case "cqlf-required mode" `Quick test_design_cqlf_required_mode;
        ] );
      ( "switching stability",
        [
          Alcotest.test_case "C1 stable pair" `Quick test_c1_stable_pair_has_certificate;
          Alcotest.test_case "C1 unstable pair" `Quick test_c1_unstable_pair_no_certificate;
          Alcotest.test_case "unstable mode" `Quick test_unstable_mode_detected;
        ] );
      ("properties", props);
    ]
