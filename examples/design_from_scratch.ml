(* End-to-end design for a NEW plant, not taken from the case study:

   1. model an (unstable) inverted-pendulum-like second-order plant;
   2. design the fast TT controller K_T by pole placement and the slow
      ET controller K_E by LQR on the delay-augmented system;
   3. check the switching-stability condition (common quadratic
      Lyapunov function) that Sec. 3.1 of the paper shows is essential;
   4. derive the dwell-time tables and the scheduler-facing timing
      abstraction;
   5. check how many copies of the loop can share one TT slot, and
      validate the ET one-sample-delay assumption on every built-in
      transport backend (FlexRay and TTW).

   Run with:  dune exec examples/design_from_scratch.exe *)

let () =
  (* 1. the plant: sampled double integrator with a slow drift pole *)
  let plant =
    Control.Plant.make
      ~phi:(Linalg.Mat.of_rows [ [ 1.01; 0.02 ]; [ 0.; 0.98 ] ])
      ~gamma:[| 0.0002; 0.02 |] ~c:[| 1.; 0. |] ~h:0.02
  in
  Format.printf "== plant ==@.%a@." Control.Plant.pp plant;
  Format.printf "open-loop stable: %b@.@." (Control.Plant.is_open_loop_stable plant);

  (* 2. controllers for the two communication modes *)
  let kt = Control.Pole_place.place_tt plant [ (0.25, 0.1) ] in
  let ke = Control.Lqr.gain_et ~r:0.4 plant in
  let gains = Control.Switched.make_gains plant ~kt ~ke in
  Format.printf "K_T = %a@.K_E = %a@.@." Linalg.Vec.pp kt Linalg.Vec.pp ke;

  (* 3. switching stability: both modes on the shared augmented state *)
  (match Control.Switch_stab.analyze plant gains with
   | Control.Switch_stab.Common_lyapunov _ ->
     Format.printf "switching stability: common Lyapunov certificate found@.@."
   | v ->
     Format.printf "switching stability: %a@.@." Control.Switch_stab.pp_verdict v);

  (* 4. requirement and dwell tables.  J_T and J_E bracket J*. *)
  let j_star = 20 in
  let app name = Core.App.make ~name ~plant ~gains ~r:40 ~j_star () in
  let a = app "P1" in
  Format.printf "== dimensioning ==@.%a@.@." Core.App.pp a;

  (* 5. how many copies share one slot?  Grow the group until the
     verifier rejects it (capped at 3 copies to keep the demo fast). *)
  let rec grow group k =
    if k > 3 then group
    else begin
      let candidate = group @ [ app (Printf.sprintf "P%d" k) ] in
      let specs = Core.Mapping.specs_of_group candidate in
      match (Core.Dverify.verify specs).Core.Dverify.verdict with
      | Core.Dverify.Safe ->
        Format.printf "  %d copies: safe@." (List.length candidate);
        grow candidate (k + 1)
      | Core.Dverify.Unsafe _ | Core.Dverify.Undetermined _ ->
        Format.printf "  %d copies: UNSAFE@." (List.length candidate);
        group
    end
  in
  let group = grow [ a ] 2 in
  Format.printf "copies sharing one TT slot: %d@.@." (List.length group);

  (* 6. is the one-sample ET delay assumption justified on the bus?
     Every built-in transport answers the same question through the
     generic WCRT query: our flow, one control frame per sampling
     period, against one interferer of the same shape per group
     member. *)
  List.iter
    (fun backend ->
      let bus = Bus.default backend in
      let size = Bus.control_frame_size bus in
      let interferers =
        List.init (List.length group) (fun _ -> (size, 4 * Bus.cycle_us bus))
      in
      match
        Bus.wcrt_us bus ~flow:(List.length group + 1) ~size ~hp:interferers
      with
      | Some w ->
        Format.printf "ET worst-case delay on %s:@.  %d us (h = 20000 us) -> %s@."
          (Bus.info bus) w
          (if w <= 20_000 then "one-sample-delay design is sound"
           else "one-sample-delay design is NOT sound")
      | None ->
        Format.printf "ET frame can be starved on %s@." (Bus.info bus))
    Cosim.Bus_check.backends
