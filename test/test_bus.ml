(* Conformance battery for transport backends: every built-in
   Bus.BACKEND must deliver the same contract — deterministic TT
   delays, ET delays monotone in contention, loss accounting that
   balances to the attempt counts, and Invalid_argument on malformed
   submissions.  FlexRay is additionally pinned against the seed's
   cosim replay numbers. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let raises f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* the case study's sampling period; both default configurations divide
   it (flexray 2 ms, ttw 2.5 ms), which the TT determinism fact needs *)
let h_us = 20_000

let each f =
  List.iter (fun backend -> f (Bus.default backend)) Cosim.Bus_check.backends

(* destroyed transmissions must balance against the attempt counts:
   a delivery with a attempts burned a-1, an undelivered job burned all
   of its tries *)
let loss_invariant name (o : Bus.outcome) =
  let burned_delivered =
    List.fold_left
      (fun acc (d : Bus.delivery) -> acc + d.Bus.attempts - 1)
      0 o.Bus.deliveries
  in
  let burned_undelivered =
    List.fold_left (fun acc (_, tries) -> acc + tries) 0 o.Bus.undelivered
  in
  check_int (name ^ ": loss accounting") o.Bus.lost_tx
    (burned_delivered + burned_undelivered)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry () =
  Alcotest.(check (list string)) "names" [ "flexray"; "ttw" ]
    (List.map Bus.name Cosim.Bus_check.backends);
  each (fun bus ->
      let name = Bus.configured_name bus in
      check_bool (name ^ ": cycle divides h") true (h_us mod Bus.cycle_us bus = 0);
      check_bool (name ^ ": has TT channels") true (Bus.tt_channels bus > 0);
      check_bool (name ^ ": control frame fits") true
        (Bus.control_frame_size bus <= Bus.et_capacity bus))

(* ------------------------------------------------------------------ *)
(* TT determinism: reserved channels deliver with one fixed latency *)

let test_tt_determinism () =
  each (fun bus ->
      let name = Bus.configured_name bus in
      let msgs =
        List.init 10 (fun k -> Bus.tt ~channel:0 ~release_us:(k * h_us))
      in
      let o = Bus.simulate bus ~until_us:(12 * h_us) msgs in
      check_int (name ^ ": all delivered") 10 (List.length o.Bus.deliveries);
      check_int (name ^ ": nothing destroyed") 0 o.Bus.lost_tx;
      match o.Bus.deliveries with
      | [] -> Alcotest.fail "no deliveries"
      | d0 :: rest ->
        let delay = Bus.delay_us d0 in
        check_bool (name ^ ": positive delay") true (delay > 0);
        List.iter
          (fun d -> check_int (name ^ ": same TT delay") delay (Bus.delay_us d))
          rest)

(* ------------------------------------------------------------------ *)
(* ET contention: the worst delay never improves when a flow is added,
   and each flow lands within the backend's WCRT bound with the
   lower-id flows as its interferers *)

let test_et_monotone_contention () =
  each (fun bus ->
      let name = Bus.configured_name bus in
      let size = Bus.control_frame_size bus in
      let within_wcrt (d : Bus.delivery) =
        match d.Bus.message.Bus.cls with
        | Bus.Tt _ -> Alcotest.fail "no TT traffic was submitted"
        | Bus.Et { flow; _ } -> (
          let hp = List.init (flow - 1) (fun _ -> (size, h_us)) in
          match Bus.wcrt_us bus ~flow ~size ~hp with
          | Some w ->
            check_bool
              (Printf.sprintf "%s: flow %d delay %d <= WCRT %d" name flow
                 (Bus.delay_us d) w)
              true
              (Bus.delay_us d <= w)
          | None -> Alcotest.failf "%s: flow %d starved" name flow)
      in
      let worst m =
        let msgs =
          List.init m (fun i -> Bus.et ~size ~flow:(i + 1) ~release_us:0 ())
        in
        let o = Bus.simulate bus ~until_us:(4 * h_us) msgs in
        check_int
          (Printf.sprintf "%s: %d contenders all delivered" name m)
          m
          (List.length o.Bus.deliveries);
        List.iter within_wcrt o.Bus.deliveries;
        List.fold_left
          (fun acc d -> Int.max acc (Bus.delay_us d))
          0 o.Bus.deliveries
      in
      let prev = ref 0 in
      for m = 1 to 6 do
        let d = worst m in
        check_bool
          (Printf.sprintf "%s: worst delay monotone at %d" name m)
          true (d >= !prev);
        prev := d
      done)

(* ------------------------------------------------------------------ *)
(* Loss driven by a fault plan: sample-indexed, first attempt only,
   TT traffic untouched *)

let test_loss_of_plan () =
  each (fun bus ->
      let name = Bus.configured_name bus in
      let plan = Faults.Plan.none ~n:1 ~horizon:10 in
      plan.Faults.Plan.et_loss.(0).(2) <- true;
      let loss = Bus.loss_of_plan ~h_us plan in
      let size = Bus.control_frame_size bus in
      let msgs =
        List.concat
          (List.init 10 (fun k ->
               [
                 Bus.tt ~channel:0 ~release_us:(k * h_us);
                 Bus.et ~size ~flow:1 ~release_us:(k * h_us) ();
               ]))
      in
      let o = Bus.simulate bus ~loss ~until_us:(12 * h_us) msgs in
      check_int (name ^ ": one transmission destroyed") 1 o.Bus.lost_tx;
      check_int (name ^ ": everything recovered") 20
        (List.length o.Bus.deliveries);
      loss_invariant name o;
      List.iter
        (fun (d : Bus.delivery) ->
          match d.Bus.message.Bus.cls with
          | Bus.Tt _ -> check_int (name ^ ": TT untouched") 1 d.Bus.attempts
          | Bus.Et _ ->
            check_int
              (name ^ ": attempts at sample "
              ^ string_of_int (d.Bus.message.Bus.release_us / h_us))
              (if d.Bus.message.Bus.release_us = 2 * h_us then 2 else 1)
              d.Bus.attempts)
        o.Bus.deliveries)

(* ------------------------------------------------------------------ *)
(* Seeded Bernoulli loss: pure in (message, attempt), so two runs of
   the same traffic are byte-identical *)

let test_loss_bernoulli_deterministic () =
  each (fun bus ->
      let name = Bus.configured_name bus in
      let loss = Bus.loss_bernoulli ~seed:7L ~p:0.5 in
      let size = Bus.control_frame_size bus in
      let msgs =
        List.init 40 (fun k ->
            Bus.et ~size ~flow:((k mod 4) + 1) ~release_us:(k / 4 * h_us) ())
      in
      let run () = Bus.simulate bus ~loss ~until_us:(14 * h_us) msgs in
      let o1 = run () and o2 = run () in
      check_bool (name ^ ": identical outcome") true (o1 = o2);
      check_bool (name ^ ": losses occurred") true (o1.Bus.lost_tx > 0);
      loss_invariant name o1)

let test_loss_burst () =
  each (fun bus ->
      let name = Bus.configured_name bus in
      (* a fade that always fires destroys exactly the first [len]
         attempts of every message *)
      let loss = Bus.loss_burst ~seed:3L ~p:1.0 ~len:2 in
      let o =
        Bus.simulate bus ~loss ~until_us:(2 * h_us)
          [ Bus.et ~flow:1 ~release_us:0 () ]
      in
      check_int (name ^ ": two burned") 2 o.Bus.lost_tx;
      (match o.Bus.deliveries with
       | [ d ] -> check_int (name ^ ": third attempt lands") 3 d.Bus.attempts
       | ds -> Alcotest.failf "%s: %d deliveries" name (List.length ds));
      loss_invariant name o)

(* ------------------------------------------------------------------ *)
(* Malformed submissions *)

let test_malformed () =
  each (fun bus ->
      let name = Bus.configured_name bus in
      let sim msgs () = Bus.simulate bus ~until_us:h_us msgs in
      check_bool (name ^ ": negative release") true
        (raises (sim [ { Bus.cls = Bus.Tt { channel = 0 }; release_us = -1 } ]));
      check_bool (name ^ ": negative channel") true
        (raises (sim [ { Bus.cls = Bus.Tt { channel = -1 }; release_us = 0 } ]));
      check_bool (name ^ ": channel out of range") true
        (raises
           (sim
              [
                {
                  Bus.cls = Bus.Tt { channel = Bus.tt_channels bus };
                  release_us = 0;
                };
              ]));
      check_bool (name ^ ": oversized ET frame") true
        (raises
           (sim
              [
                {
                  Bus.cls = Bus.Et { flow = 1; size = Bus.et_capacity bus + 1 };
                  release_us = 0;
                };
              ]));
      check_bool (name ^ ": ET flow ids are 1-based") true
        (raises (sim [ { Bus.cls = Bus.Et { flow = 0; size = 1 }; release_us = 0 } ]));
      check_bool (name ^ ": empty ET frame") true
        (raises (sim [ { Bus.cls = Bus.Et { flow = 1; size = 0 }; release_us = 0 } ])));
  check_bool "constructor: negative channel" true
    (raises (fun () -> Bus.tt ~channel:(-1) ~release_us:0));
  check_bool "constructor: empty frame" true
    (raises (fun () -> Bus.et ~size:0 ~flow:1 ~release_us:0 ()))

(* ------------------------------------------------------------------ *)
(* Pin: the nominal case-study replay on flexray is byte-identical to
   the pre-seam bus check (same messages, same delays, same facts) *)

let test_cosim_flexray_pin () =
  let apps =
    List.map
      (fun (a : Casestudy.app) ->
        Core.App.make ~name:a.Casestudy.name ~plant:a.Casestudy.plant
          ~gains:a.Casestudy.gains ~r:a.Casestudy.r ~j_star:a.Casestudy.j_star
          ())
      Casestudy.all
  in
  let mapping = Core.Mapping.first_fit apps in
  let report =
    Cosim.System.of_mapping mapping
      ~disturbances:[ (0, "C1"); (0, "C6"); (40, "C2") ]
      ~horizon:120
  in
  let r = Cosim.System.bus_validate ~bus:Flexray.Backend.default report in
  Alcotest.(check string) "backend" "flexray" r.Cosim.Bus_check.backend;
  check_int "messages" 720 r.Cosim.Bus_check.messages;
  check_int "delivered" 720 r.Cosim.Bus_check.delivered;
  check_int "tt" 26 r.Cosim.Bus_check.tt_count;
  check_int "et" 694 r.Cosim.Bus_check.et_count;
  check_int "tt min delay" 100 (fst r.Cosim.Bus_check.tt_delay_us);
  check_int "tt max delay" 200 (snd r.Cosim.Bus_check.tt_delay_us);
  check_int "et min delay" 1032 (fst r.Cosim.Bus_check.et_delay_us);
  check_int "et max delay" 1192 (snd r.Cosim.Bus_check.et_delay_us);
  check_int "h" 20_000 r.Cosim.Bus_check.h_us;
  check_bool "TT deterministic" true r.Cosim.Bus_check.tt_deterministic;
  check_bool "one-sample" true r.Cosim.Bus_check.one_sample_ok;
  check_bool "all delivered" true r.Cosim.Bus_check.all_delivered;
  check_int "no losses" 0 r.Cosim.Bus_check.lost_tx;
  check_int "no overruns" 0 r.Cosim.Bus_check.et_overruns;
  check_bool "facts hold" true (Cosim.Bus_check.facts_hold r);
  (* and the same traffic on TTW holds the same facts *)
  let t = Cosim.System.bus_validate ~bus:Ttw.Backend.default report in
  check_bool "ttw facts hold" true (Cosim.Bus_check.facts_hold t);
  check_int "ttw same message count" 720 t.Cosim.Bus_check.messages;
  check_int "ttw all delivered" 720 t.Cosim.Bus_check.delivered

(* ------------------------------------------------------------------ *)
(* The link:burst clause end-to-end: a campaign on the lossy wireless
   backend stays a pure function of (spec, seed), a p=0 fade is
   invisible next to plain zero link loss, and a certain fade shows up
   in the bus accounting *)

let campaign_apps =
  lazy
    (let plant =
       Control.Plant.make
         ~phi:(Linalg.Mat.of_rows [ [ 0.95; 0.08 ]; [ 0.; 0.9 ] ])
         ~gamma:[| 0.004; 0.08 |] ~c:[| 1.; 0. |] ~h:0.02
     in
     let gains =
       let kt = Control.Pole_place.place_tt plant [ (0.25, 0.); (0.3, 0.) ] in
       let ke =
         Control.Pole_place.place_et plant
           [ (0.82, 0.); (0.85, 0.); (0.3, 0.) ]
       in
       Control.Switched.make_gains plant ~kt ~ke
     in
     [
       [
         Core.App.make ~name:"A" ~plant ~gains ~r:120 ~j_star:25 ();
         Core.App.make ~name:"B" ~plant ~gains ~r:130 ~j_star:25 ();
       ];
     ])

let burst_campaign spec_str =
  let spec =
    match Faults.Spec.parse spec_str with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  match
    Cosim.Campaign.run ~spec ~seed:42L ~runs:3 ~horizon:120
      ~bus:Ttw.Backend.default (Lazy.force campaign_apps)
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* the spec is part of the summary, so comparisons across different
   spec strings must mask it out *)
let despecced s = { s with Cosim.Campaign.spec = [] }

let test_burst_campaign_deterministic () =
  let a = burst_campaign "link:burst=0.4,len=2" in
  let b = burst_campaign "link:burst=0.4,len=2" in
  check_bool "same (spec, seed): byte-identical summary" true (a = b);
  let silent = burst_campaign "link:burst=0,len=2" in
  let baseline = burst_campaign "link:p=0" in
  check_bool "p=0 fade invisible next to zero link loss" true
    (despecced silent = despecced baseline);
  let certain = burst_campaign "link:burst=1,len=2" in
  check_bool "certain fade reaches the bus accounting" true
    (List.exists
       (fun (s : Cosim.Campaign.slot_summary) -> s.Cosim.Campaign.bus_lost_tx > 0)
       certain.Cosim.Campaign.slots);
  check_bool "fades stay medium-level: control layer untouched" true
    (List.for_all2
       (fun (c : Cosim.Campaign.slot_summary)
            (b : Cosim.Campaign.slot_summary) ->
         c.Cosim.Campaign.et_losses = b.Cosim.Campaign.et_losses
         && c.Cosim.Campaign.injected = b.Cosim.Campaign.injected)
       certain.Cosim.Campaign.slots baseline.Cosim.Campaign.slots)

(* ------------------------------------------------------------------ *)
(* TTW specifics: retransmission across rounds *)

let test_ttw_retransmission () =
  let bus = Ttw.Backend.default in
  let loss (m : Bus.message) ~attempt =
    (match m.Bus.cls with Bus.Et _ -> true | Bus.Tt _ -> false) && attempt <= 2
  in
  let o = Bus.simulate bus ~loss ~until_us:h_us [ Bus.et ~flow:1 ~release_us:0 () ] in
  check_int "two fades" 2 o.Bus.lost_tx;
  match o.Bus.deliveries with
  | [ d ] ->
    check_int "third round lands" 3 d.Bus.attempts;
    check_bool "at least two rounds late" true
      (Bus.delay_us d >= 2 * Bus.cycle_us bus)
  | ds -> Alcotest.failf "expected one delivery, got %d" (List.length ds)

let () =
  Alcotest.run "bus"
    [
      ( "registry",
        [
          Alcotest.test_case "names and lookups" `Quick test_registry;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "TT delay determinism" `Quick test_tt_determinism;
          Alcotest.test_case "ET delay monotone in contention" `Quick
            test_et_monotone_contention;
          Alcotest.test_case "loss follows the fault plan" `Quick
            test_loss_of_plan;
          Alcotest.test_case "bernoulli loss is deterministic" `Quick
            test_loss_bernoulli_deterministic;
          Alcotest.test_case "burst loss burns early attempts" `Quick
            test_loss_burst;
          Alcotest.test_case "malformed submissions" `Quick test_malformed;
        ] );
      ( "flexray",
        [
          Alcotest.test_case "case-study replay pinned to seed" `Slow
            test_cosim_flexray_pin;
        ] );
      ( "ttw",
        [
          Alcotest.test_case "retransmission across rounds" `Quick
            test_ttw_retransmission;
          Alcotest.test_case "burst campaign deterministic" `Quick
            test_burst_campaign_deterministic;
        ] );
    ]
