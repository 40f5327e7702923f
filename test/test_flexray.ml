(* Tests for the FlexRay substrate: configuration, dynamic-segment
   arbitration, the cycle simulator over generic bus messages, and the
   WCRT analysis. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cfg =
  Flexray.Config.make ~static_slot_count:4 ~static_slot_us:50 ~minislot_count:20
    ~minislot_us:2

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_arithmetic () =
  check_int "static" 200 (Flexray.Config.static_us cfg);
  check_int "dynamic" 40 (Flexray.Config.dynamic_us cfg);
  check_int "cycle" 240 (Flexray.Config.cycle_us cfg);
  check_int "slot start" (240 + 100)
    (Flexray.Config.static_slot_start cfg ~cycle:1 ~slot:2)

let test_config_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "zero slots" true
    (raises (fun () ->
         ignore
           (Flexray.Config.make ~static_slot_count:0 ~static_slot_us:1
              ~minislot_count:1 ~minislot_us:1)));
  check_bool "bad slot index" true
    (raises (fun () ->
         ignore (Flexray.Config.static_slot_start cfg ~cycle:0 ~slot:4)))

(* ------------------------------------------------------------------ *)
(* Dynamic segment arbitration *)

let test_arbitrate_priority_order () =
  let sent, leftover =
    Flexray.Dynamic_segment.arbitrate ~minislot_count:20
      ~pending:[ (3, 5); (1, 4) ]
  in
  (match sent with
   | [ a; b ] ->
     check_int "id 1 first" 1 a.Flexray.Dynamic_segment.frame_id;
     check_int "starts at 0" 0 a.Flexray.Dynamic_segment.start_minislot;
     check_int "id 3 second" 3 b.Flexray.Dynamic_segment.frame_id;
     (* id 2 absent: one empty minislot after frame 1's four *)
     check_int "start after gap" 5 b.Flexray.Dynamic_segment.start_minislot
   | _ -> Alcotest.fail "expected 2 transmissions");
  check_bool "nothing left" true (leftover = [])

let test_arbitrate_overflow_waits () =
  (* the second frame does not fit and must wait *)
  let sent, leftover =
    Flexray.Dynamic_segment.arbitrate ~minislot_count:10
      ~pending:[ (1, 8); (2, 5) ]
  in
  check_int "one sent" 1 (List.length sent);
  check_bool "id 2 left over" true (leftover = [ (2, 5) ])

let test_arbitrate_low_priority_starvation () =
  (* a lower-id frame consumes the room every cycle *)
  let _, leftover =
    Flexray.Dynamic_segment.arbitrate ~minislot_count:10
      ~pending:[ (1, 9); (2, 3) ]
  in
  check_bool "starved this cycle" true (List.mem (2, 3) leftover)

let test_arbitrate_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "duplicate ids" true
    (raises (fun () ->
         ignore
           (Flexray.Dynamic_segment.arbitrate ~minislot_count:5
              ~pending:[ (1, 1); (1, 2) ])))

(* ------------------------------------------------------------------ *)
(* Bus simulation *)

let deliveries ~until_us msgs =
  (Flexray.Sim.simulate cfg ~until_us msgs).Bus.deliveries

(* the delivery of ET flow (frame id) [id] *)
let of_flow id ds =
  List.find
    (fun (d : Bus.delivery) ->
      match d.Bus.message.Bus.cls with
      | Bus.Et { flow; _ } -> flow = id
      | Bus.Tt _ -> false)
    ds

let test_static_deterministic_delay () =
  match deliveries ~until_us:1000 [ Bus.tt ~channel:2 ~release_us:10 ] with
  | [ d ] ->
    (* slot 2 starts at 100 in cycle 0; release 10 <= 100, delivered at
       slot end 150 *)
    check_int "delivered" 150 d.Bus.delivered_us;
    check_int "delay" 140 (Bus.delay_us d)
  | _ -> Alcotest.fail "expected one delivery"

let test_static_misses_slot_waits_cycle () =
  match deliveries ~until_us:1000 [ Bus.tt ~channel:0 ~release_us:10 ] with
  | [ d ] ->
    (* slot 0 of cycle 0 started at 0 (before release): wait for cycle 1 *)
    check_int "next cycle" (240 + 50) d.Bus.delivered_us
  | _ -> Alcotest.fail "expected one delivery"

let test_dynamic_delivery_and_contention () =
  let m1 = Bus.et ~size:18 ~flow:1 ~release_us:0 () in
  let m2 = Bus.et ~size:5 ~flow:2 ~release_us:0 () in
  let ds = deliveries ~until_us:2000 [ m1; m2 ] in
  check_int "both delivered" 2 (List.length ds);
  (* frame 1 fills 18 of 20 minislots in cycle 0; frame 2 cannot fit
     and goes in cycle 1 *)
  check_int "f1 in cycle 0" (200 + 36) (of_flow 1 ds).Bus.delivered_us;
  check_bool "f2 in cycle 1" true ((of_flow 2 ds).Bus.delivered_us > 240)

let test_dynamic_fifo_per_id () =
  (* two messages on the same id: oldest first, one per cycle *)
  let m k = Bus.et ~size:3 ~flow:1 ~release_us:k () in
  let ds = deliveries ~until_us:2000 [ m 5; m 0 ] in
  match
    List.map
      (fun (d : Bus.delivery) ->
        (d.Bus.message.Bus.release_us, d.Bus.delivered_us))
      ds
  with
  | [ (0, t1); (5, t2) ] ->
    check_bool "ordered" true (t1 < t2);
    check_bool "different cycles" true (t2 - t1 >= 240 - 6)
  | _ -> Alcotest.fail "unexpected deliveries"

(* ------------------------------------------------------------------ *)
(* WCRT *)

let test_wcrt_alone () =
  (* no interference: delayed by at most one full cycle plus segment *)
  match Flexray.Wcrt.wcrt_us cfg ~own_id:1 ~own_length:5 [] with
  | Some w -> check_int "one cycle + segment" (240 + 240) w
  | None -> Alcotest.fail "expected a bound"

let test_wcrt_starvation_detected () =
  (* a frame that never fits alongside the higher-priority load *)
  let hp = [ { Flexray.Wcrt.length_minislots = 19; period_cycles = 1 } ] in
  check_bool "starvation" true
    (Flexray.Wcrt.blocked_cycles_bound ~minislot_count:20 ~own_id:2
       ~own_length:5 hp
     = None)

let test_wcrt_bound_is_upper_bound_on_sim () =
  (* simulate the worst phasing we can construct and compare *)
  let hp_frame = { Flexray.Wcrt.length_minislots = 12; period_cycles = 2 } in
  let bound =
    Flexray.Wcrt.wcrt_us cfg ~own_id:2 ~own_length:10 [ hp_frame ]
  in
  (match bound with
   | None -> Alcotest.fail "expected a bound"
   | Some w ->
     (* adversarial release: hp released every 2 cycles on id 1, our
        frame released right after a dynamic segment start *)
     let mk_hp k = Bus.et ~size:12 ~flow:1 ~release_us:(k * 480) () in
     let own = Bus.et ~size:10 ~flow:2 ~release_us:201 () in
     let ds = deliveries ~until_us:10_000 (own :: List.init 10 mk_hp) in
     check_bool "bound covers simulation" true
       (Bus.delay_us (of_flow 2 ds) <= w))

let test_one_sample_assumption () =
  (* the paper's design point: ET worst case within one 20 ms period *)
  let auto = Flexray.Config.default_automotive in
  let hp =
    List.init 5 (fun _ -> { Flexray.Wcrt.length_minislots = 20; period_cycles = 5 })
  in
  check_bool "one-sample delay holds" true
    (Flexray.Wcrt.one_sample_delay_ok auto ~h_us:20_000 ~own_id:6 ~own_length:10 hp);
  (* and a pathological load breaks it *)
  let overload =
    [ { Flexray.Wcrt.length_minislots = 199; period_cycles = 1 } ]
  in
  check_bool "overload breaks it" false
    (Flexray.Wcrt.one_sample_delay_ok auto ~h_us:20_000 ~own_id:2 ~own_length:10
       overload)

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_pending =
  QCheck2.Gen.(
    let* n = int_range 0 6 in
    let* lens = list_size (return n) (int_range 1 6) in
    let ids = List.mapi (fun i l -> (i + 1, l)) lens in
    return ids)

let prop_arbitration_conserves_frames =
  QCheck2.Test.make ~name:"arbitration loses no frame" ~count:100 gen_pending
    (fun pending ->
      let sent, leftover =
        Flexray.Dynamic_segment.arbitrate ~minislot_count:12 ~pending
      in
      List.length sent + List.length leftover = List.length pending)

let prop_transmissions_disjoint =
  QCheck2.Test.make ~name:"transmissions never overlap" ~count:100 gen_pending
    (fun pending ->
      let sent, _ =
        Flexray.Dynamic_segment.arbitrate ~minislot_count:12 ~pending
      in
      let rec ok = function
        | a :: (b :: _ as rest) ->
          a.Flexray.Dynamic_segment.start_minislot
           + a.Flexray.Dynamic_segment.length_minislots
          <= b.Flexray.Dynamic_segment.start_minislot
          && ok rest
        | [ _ ] | [] -> true
      in
      ok sent)

let prop_transmissions_fit_segment =
  QCheck2.Test.make ~name:"transmissions fit the segment" ~count:100 gen_pending
    (fun pending ->
      let sent, _ =
        Flexray.Dynamic_segment.arbitrate ~minislot_count:12 ~pending
      in
      List.for_all
        (fun t ->
          t.Flexray.Dynamic_segment.start_minislot
           + t.Flexray.Dynamic_segment.length_minislots
          <= 12)
        sent)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_arbitration_conserves_frames;
      prop_transmissions_disjoint;
      prop_transmissions_fit_segment;
    ]

let () =
  Alcotest.run "flexray"
    [
      ( "config",
        [
          Alcotest.test_case "arithmetic" `Quick test_config_arithmetic;
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ( "dynamic segment",
        [
          Alcotest.test_case "priority order" `Quick test_arbitrate_priority_order;
          Alcotest.test_case "overflow waits" `Quick test_arbitrate_overflow_waits;
          Alcotest.test_case "starvation" `Quick test_arbitrate_low_priority_starvation;
          Alcotest.test_case "validation" `Quick test_arbitrate_validation;
        ] );
      ( "bus",
        [
          Alcotest.test_case "static delay" `Quick test_static_deterministic_delay;
          Alcotest.test_case "missed slot" `Quick test_static_misses_slot_waits_cycle;
          Alcotest.test_case "dynamic contention" `Quick test_dynamic_delivery_and_contention;
          Alcotest.test_case "per-id FIFO" `Quick test_dynamic_fifo_per_id;
        ] );
      ( "wcrt",
        [
          Alcotest.test_case "no interference" `Quick test_wcrt_alone;
          Alcotest.test_case "starvation detected" `Quick test_wcrt_starvation_detected;
          Alcotest.test_case "bounds simulation" `Quick test_wcrt_bound_is_upper_bound_on_sim;
          Alcotest.test_case "one-sample assumption" `Quick test_one_sample_assumption;
        ] );
      ("properties", props);
    ]
