(* Tests for the core library: strategy sequences, dwell tables, the
   scheduler-facing application abstraction, both verification engines,
   and the first-fit mapper.  Uses a cheap synthetic plant so the suite
   stays fast; the real case study is exercised in test_casestudy.ml
   and test_integration.ml. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a small second-order plant with pole-placed gains that exhibit the
   paper's J_T < J* < J_E regime *)
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

let table = lazy (Core.Dwell.compute plant gains ~j_star:25)

(* ------------------------------------------------------------------ *)
(* Strategy *)

let test_mode_sequence () =
  let m = Core.Strategy.mode_at ~t_w:2 ~t_dw:3 in
  check_bool "waits in ME" true (Control.Switched.mode_equal (m 0) Control.Switched.Me);
  check_bool "waits in ME (1)" true (Control.Switched.mode_equal (m 1) Control.Switched.Me);
  check_bool "dwells in MT" true (Control.Switched.mode_equal (m 2) Control.Switched.Mt);
  check_bool "dwells in MT (4)" true (Control.Switched.mode_equal (m 4) Control.Switched.Mt);
  check_bool "back to ME" true (Control.Switched.mode_equal (m 5) Control.Switched.Me)

let test_strategy_response_shape () =
  let y = Core.Strategy.response plant gains ~t_w:0 ~t_dw:5 in
  check_bool "starts at 1" true (Float.abs (y.(0) -. 1.) < 1e-12);
  check_bool "long enough" true (Array.length y > 100)

(* ------------------------------------------------------------------ *)
(* Dwell *)

let test_dwell_validates () =
  let t = Lazy.force table in
  (match Core.Dwell.validate t with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  check_bool "JT <= J* < JE" true (t.Core.Dwell.jt <= 25 && 25 < t.Core.Dwell.je)

let test_dwell_min_meets_requirement () =
  let t = Lazy.force table in
  Array.iteri
    (fun t_w dmin ->
      match Core.Strategy.settling plant gains ~t_w ~t_dw:dmin with
      | Some j -> check_bool (Printf.sprintf "tw=%d meets" t_w) true (j <= 25)
      | None -> Alcotest.fail "must settle")
    t.Core.Dwell.t_dw_min

let test_dwell_below_min_fails () =
  let t = Lazy.force table in
  Array.iteri
    (fun t_w dmin ->
      if dmin > 1 then
        match Core.Strategy.settling plant gains ~t_w ~t_dw:(dmin - 1) with
        | Some j -> check_bool (Printf.sprintf "tw=%d dwell-1 misses" t_w) true (j > 25)
        | None -> ())
    t.Core.Dwell.t_dw_min

let test_dwell_beyond_t_w_max_infeasible () =
  let t = Lazy.force table in
  let t_w = t.Core.Dwell.t_w_max + 1 in
  (* no dwell up to a generous cap can meet the budget *)
  let feasible = ref false in
  for t_dw = 1 to 60 do
    match Core.Strategy.settling plant gains ~t_w ~t_dw with
    | Some j when j <= 25 -> feasible := true
    | Some _ | None -> ()
  done;
  check_bool "infeasible past T*_w" false !feasible

let test_dwell_max_is_saturation () =
  let t = Lazy.force table in
  (* at T+_dw the settling equals the best achievable for that wait *)
  Array.iteri
    (fun t_w dmax ->
      let j_at d = Core.Strategy.settling plant gains ~t_w ~t_dw:d in
      match j_at dmax with
      | None -> Alcotest.fail "must settle"
      | Some j ->
        check_int (Printf.sprintf "tw=%d saturated" t_w) t.Core.Dwell.j_at_max.(t_w) j;
        (* dwelling longer never improves *)
        (match j_at (dmax + 3) with
         | Some j' -> check_bool "no improvement" true (j' >= j)
         | None -> ()))
    t.Core.Dwell.t_dw_max

let test_dwell_infeasible_cases () =
  (* requirement below J_T *)
  check_bool "too strict" true
    (try
       ignore (Core.Dwell.compute plant gains ~j_star:1);
       false
     with Core.Dwell.Infeasible _ -> true);
  (* requirement above J_E: trivially met on ET *)
  check_bool "too loose" true
    (try
       ignore (Core.Dwell.compute plant gains ~j_star:400);
       false
     with Core.Dwell.Infeasible _ -> true)

let test_dwell_stride () =
  let t1 = Lazy.force table in
  let t2 = Core.Dwell.compute ~stride:2 plant gains ~j_star:25 in
  (* coarser table covers every second wait; entries at even waits match *)
  check_bool "coarser" true
    (Array.length t2.Core.Dwell.t_dw_min <= Array.length t1.Core.Dwell.t_dw_min);
  Array.iteri
    (fun i d -> check_int "stride entry" t1.Core.Dwell.t_dw_min.(2 * i) d)
    t2.Core.Dwell.t_dw_min

let test_dwell_surface_consistency () =
  let t = Lazy.force table in
  let surface = Core.Dwell.surface plant gains ~t_w_max:2 ~t_dw_max:8 in
  check_int "size" (3 * 8) (List.length surface);
  List.iter
    (fun (t_w, t_dw, j) ->
      if t_w = 0 && t_dw = t.Core.Dwell.t_dw_min.(0) then
        match j with
        | Some j -> check_bool "surface matches table" true (j <= 25)
        | None -> Alcotest.fail "expected settling")
    surface

let test_deadline () =
  let t = Lazy.force table in
  check_int "slack at 0" t.Core.Dwell.t_w_max (Core.Dwell.deadline t ~t_w:0);
  check_int "slack at max" 0 (Core.Dwell.deadline t ~t_w:t.Core.Dwell.t_w_max)

(* ------------------------------------------------------------------ *)
(* Settle kernel, against the reference simulation: Switched.run and
   Settle.settling_index over today's horizons, and Strategy.settling *)

let reference_pure p g mode =
  Control.Settle.settling_index
    (Control.Switched.run p g (Core.Strategy.pure mode)
       (Control.Switched.disturbed p) 600)

let reference_hold p g ~t_w =
  Control.Settle.settling_index
    (Control.Switched.run p g
       (fun k -> if k < t_w then Control.Switched.Me else Control.Switched.Mt)
       (Control.Switched.disturbed p) (t_w + 600))

let show = function Some j -> string_of_int j | None -> "None"

(* The first answer on which the kernel and the reference differ: pure
   modes, for every wait up to [t_w_hi] the hold and every dwell up to
   the cap [Dwell.compute] scans at that wait, and then the hold at wait
   0 again, which restarts the kernel's shared ET wait. *)
let kernel_disagreement p g ~j_star ~t_w_hi =
  let k = Control.Settle_kernel.make p g in
  let differ what a b =
    if a = b then None
    else Some (Printf.sprintf "%s: kernel %s, reference %s" what (show a) (show b))
  in
  let rec waits t_w =
    if t_w > t_w_hi then
      differ "hold t_w=0 again"
        (Control.Settle_kernel.hold k ~t_w:0)
        (reference_hold p g ~t_w:0)
    else
      let hold = Control.Settle_kernel.hold k ~t_w in
      match differ (Printf.sprintf "hold t_w=%d" t_w) hold (reference_hold p g ~t_w) with
      | Some _ as m -> m
      | None ->
        let j_hold = Option.value hold ~default:j_star in
        let cap = Int.max (j_hold - t_w) (j_star - t_w) + 25 in
        let row = Control.Settle_kernel.dwells k ~t_w ~len:cap in
        let rec dwells t_dw =
          if t_dw > cap then waits (t_w + 1)
          else
            match
              differ
                (Printf.sprintf "t_w=%d t_dw=%d" t_w t_dw)
                row.(t_dw - 1)
                (Core.Strategy.settling p g ~t_w ~t_dw)
            with
            | Some _ as m -> m
            | None -> dwells (t_dw + 1)
        in
        dwells 1
  in
  match
    List.find_map
      (fun (mode, name) ->
        differ name (Control.Settle_kernel.pure k mode) (reference_pure p g mode))
      [ (Control.Switched.Mt, "pure MT"); (Control.Switched.Me, "pure ME") ]
  with
  | Some _ as m -> m
  | None -> waits 0

let kernel_plants =
  plant :: List.map (fun (a : Casestudy.app) -> a.Casestudy.plant) Casestudy.all

let check_agrees name p g ~j_star ~t_w_hi =
  Alcotest.(check (option string))
    name None
    (kernel_disagreement p g ~j_star ~t_w_hi)

let et_output p = Array.append p.Control.Plant.c [| 0. |]

(* sqrt(c P⁻¹ cᵀ · zᵀPz) bounds |y| from z on, for both loops of the
   test pair and of every case-study pair *)
let test_kernel_bound_dominates () =
  let rand = Random.State.make [| 7 |] in
  List.iter
    (fun (name, p, (g : Control.Switched.gains)) ->
      let n = Control.Plant.order p in
      List.iter
        (fun (mode, a, c) ->
          match Control.Settle_kernel.certify a c with
          | None -> Alcotest.failf "%s: a stable loop must be certified" name
          | Some cert ->
            for _ = 1 to 25 do
              let z =
                Array.init (Linalg.Mat.rows a) (fun _ ->
                    Random.State.float rand 2. -. 1.)
              in
              let s0 =
                Control.Switched.initial
                  ~u_prev:(if Array.length z > n then z.(n) else 0.)
                  (Array.sub z 0 n)
              in
              let y = Control.Switched.run p g (fun _ -> mode) s0 2000 in
              if Control.Settle.peak y > Control.Settle_kernel.bound cert z then
                Alcotest.failf "%s: bound %g below peak %g" name
                  (Control.Settle_kernel.bound cert z) (Control.Settle.peak y)
            done)
        [
          ( Control.Switched.Mt,
            Control.Feedback.closed_loop_tt p g.Control.Switched.kt,
            p.Control.Plant.c );
          ( Control.Switched.Me,
            Control.Feedback.closed_loop_et p g.Control.Switched.ke,
            et_output p );
        ])
    (("test", plant, gains)
    :: List.map
         (fun (a : Casestudy.app) ->
           (a.Casestudy.name, a.Casestudy.plant, a.Casestudy.gains))
         Casestudy.all)

let test_kernel_unstable_et () =
  let ke =
    Control.Pole_place.place_et plant [ (1.05, 0.); (0.85, 0.); (0.3, 0.) ]
  in
  let g = Control.Switched.make_gains plant ~kt:gains.Control.Switched.kt ~ke in
  check_bool "no certificate" true
    (Control.Settle_kernel.certify (Control.Feedback.closed_loop_et plant ke)
       (et_output plant)
    = None);
  check_bool "ET diverges" true (reference_pure plant g Control.Switched.Me = None);
  check_agrees "unstable ET" plant g ~j_star:25 ~t_w_hi:6

(* design C1's screen: K_T on the 0.4 ring with the LQR K_E at r = 3
   (J_E = 512, so the pure-mode horizon must exceed 512) and at r = 10,
   whose ET loop is certified but so slow that a one-sample dwell's tail
   is still outside the band 400 samples later *)
let test_kernel_slow_tail_hits_cap () =
  let p = Casestudy.c1.Casestudy.plant in
  let kt = Control.Pole_place.place_tt p [ (0.4, 0.); (0.36, 0.); (0.32, 0.) ] in
  List.iter
    (fun (r, j_e, unsettled) ->
      let ke = Control.Lqr.gain_et ~r p in
      let g = Control.Switched.make_gains p ~kt ~ke in
      check_bool "certified" true
        (Control.Settle_kernel.certify (Control.Feedback.closed_loop_et p ke)
           (et_output p)
        <> None);
      let k = Control.Settle_kernel.make p g in
      check_bool "J_E" true
        (Control.Settle_kernel.pure k Control.Switched.Me = j_e);
      check_bool "one-sample dwell at the cap" unsettled
        ((Control.Settle_kernel.dwells k ~t_w:0 ~len:1).(0) = None);
      check_agrees "slow ET" p g ~j_star:18 ~t_w_hi:4)
    [ (3., Some 512, false); (10., None, true) ]

(* ------------------------------------------------------------------ *)
(* App *)

let app name r =
  Core.App.make ~name ~plant ~gains ~r ~j_star:25 ()

let test_app_spec () =
  let a = app "X" 120 in
  let s = Core.App.spec a ~id:3 in
  check_int "id" 3 s.Sched.Appspec.id;
  check_int "t_w_max" (Core.App.t_w_max a) s.Sched.Appspec.t_w_max;
  check_int "r" 120 s.Sched.Appspec.r

let test_app_rejects_bad_r () =
  check_bool "J* >= r rejected" true
    (try
       ignore (Core.App.make ~name:"X" ~plant ~gains ~r:20 ~j_star:25 ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Dverify *)

let spec ?(name = "S") ?(id = 0) ~t_w_max ~dmin ~dmax ~r () =
  Sched.Appspec.make ~id ~name ~t_w_max
    ~t_dw_min:(Array.make (t_w_max + 1) dmin)
    ~t_dw_max:(Array.make (t_w_max + 1) dmax)
    ~r

(* unbudgeted runs must always decide *)
let is_safe_verdict = function
  | Core.Dverify.Safe -> true
  | Core.Dverify.Unsafe _ -> false
  | Core.Dverify.Undetermined _ ->
    Alcotest.fail "unbudgeted verification must not be undetermined"

let test_dverify_single_safe () =
  let g = [| spec ~t_w_max:0 ~dmin:2 ~dmax:3 ~r:10 () |] in
  List.iter
    (fun (r : Core.Dverify.result) ->
      match r.Core.Dverify.verdict with
      | Core.Dverify.Safe -> ()
      | Core.Dverify.Unsafe _ | Core.Dverify.Undetermined _ ->
        Alcotest.fail "single app is trivially safe")
    [ Core.Dverify.verify g; Core.Dverify.reference g ]

let test_dverify_unsafe_pair_with_counterexample () =
  let g =
    [|
      spec ~name:"A" ~id:0 ~t_w_max:1 ~dmin:3 ~dmax:4 ~r:20 ();
      spec ~name:"B" ~id:1 ~t_w_max:1 ~dmin:3 ~dmax:4 ~r:20 ();
    |]
  in
  match (Core.Dverify.verify g).Core.Dverify.verdict with
  | Core.Dverify.Safe -> Alcotest.fail "pair cannot share"
  | Core.Dverify.Undetermined _ -> Alcotest.fail "must decide"
  | Core.Dverify.Unsafe ce ->
    check_bool "has failing app" true (ce.Core.Dverify.failing <> []);
    check_bool "has steps" true (List.length ce.Core.Dverify.steps > 0);
    (* replay the counterexample through the canonical transition
       function and confirm the error really occurs *)
    let st = ref (Sched.Slot_state.initial g) in
    let seen_error = ref false in
    List.iter
      (fun (disturbed, expected) ->
        let st', out = Sched.Slot_state.tick g !st ~disturbed in
        if out.Sched.Slot_state.new_errors <> [] then seen_error := true;
        check_bool "replay matches" true (Sched.Slot_state.equal st' expected);
        st := st')
      ce.Core.Dverify.steps;
    check_bool "error reproduced" true !seen_error

let test_dverify_modes_agree () =
  let groups =
    [
      [| spec ~name:"A" ~t_w_max:2 ~dmin:1 ~dmax:2 ~r:12 () |];
      [|
        spec ~name:"A" ~id:0 ~t_w_max:3 ~dmin:1 ~dmax:2 ~r:12 ();
        spec ~name:"B" ~id:1 ~t_w_max:3 ~dmin:1 ~dmax:2 ~r:12 ();
      |];
      [|
        spec ~name:"A" ~id:0 ~t_w_max:1 ~dmin:2 ~dmax:3 ~r:14 ();
        spec ~name:"B" ~id:1 ~t_w_max:4 ~dmin:1 ~dmax:2 ~r:14 ();
      |];
    ]
  in
  List.iter
    (fun g ->
      let v (r : Core.Dverify.result) = is_safe_verdict r.Core.Dverify.verdict in
      check_bool "engine = reference" true
        (v (Core.Dverify.verify g) = v (Core.Dverify.reference g)))
    groups

(* Six apps whose quiet times pass 512 samples take 15-16 bits each,
   so a packed state needs more than the 62 bits of an int.  Pinned to
   the verdicts, counts and max-wait tables of the engine and of the
   reference, whose exact dedup keys on the long encodings. *)
let wide_group ~t_w_max ~dmin ~dmax =
  Array.init 6 (fun id ->
      spec ~name:(Printf.sprintf "W%d" (id + 1)) ~id ~t_w_max ~dmin ~dmax
        ~r:(512 + (7 * id)) ())

let test_dverify_wide_layout () =
  let pin label (r : Core.Dverify.result) ~safe ~states ~transitions ~max_wait =
    check_bool (label ^ " verdict") safe (is_safe_verdict r.Core.Dverify.verdict);
    check_int (label ^ " states") states r.Core.Dverify.stats.Core.Dverify.states;
    check_int (label ^ " transitions") transitions
      r.Core.Dverify.stats.Core.Dverify.transitions;
    check_bool (label ^ " max_wait") true
      (r.Core.Dverify.stats.Core.Dverify.max_wait = max_wait)
  in
  let tight = wide_group ~t_w_max:2 ~dmin:2 ~dmax:3 in
  check_bool "unbounded layout exceeds an int" true
    (Sched.Slot_state.Packed.(bits (layout tight)) > 62);
  (* an aborted run's table holds the grants seen before the error *)
  pin "unbounded" (Core.Dverify.verify tight) ~safe:false ~states:1959
    ~transitions:1960 ~max_wait:[| 0; 2; 0; 0; 0; 0 |];
  pin "unbounded reference" (Core.Dverify.reference tight) ~safe:false
    ~states:61357 ~transitions:61358 ~max_wait:(Array.make 6 2);
  let loose = wide_group ~t_w_max:5 ~dmin:1 ~dmax:2 in
  check_bool "bounded layout exceeds an int" true
    (Sched.Slot_state.Packed.(bits (layout ~instances:1 loose)) > 62);
  List.iter
    (fun (label, r) ->
      pin label r ~safe:true ~states:27208 ~transitions:81400
        ~max_wait:(Array.make 6 5))
    [
      ("bounded k=1", Core.Dverify.verify_bounded ~instances:1 loose);
      ("bounded k=1 reference", Core.Dverify.reference ~instances:1 loose);
    ]

let test_dverify_bounded_consistent () =
  let g =
    [|
      spec ~name:"A" ~id:0 ~t_w_max:3 ~dmin:1 ~dmax:2 ~r:12 ();
      spec ~name:"B" ~id:1 ~t_w_max:3 ~dmin:1 ~dmax:2 ~r:12 ();
    |]
  in
  let full =
    is_safe_verdict (Core.Dverify.verify g).Core.Dverify.verdict
  in
  List.iter
    (fun k ->
      let b =
        is_safe_verdict
          (Core.Dverify.verify_bounded ~instances:k g).Core.Dverify.verdict
      in
      (* bounded is an under-approximation: it may only miss errors *)
      check_bool "no spurious error" true (full || not full = not b || b))
    [ 1; 2 ];
  (* and for this safe group all engines say safe *)
  check_bool "safe group stays safe" true full

(* ------------------------------------------------------------------ *)
(* Ta_model cross-validation *)

let test_ta_model_agrees_with_discrete () =
  let groups =
    [
      [| spec ~name:"A" ~t_w_max:1 ~dmin:1 ~dmax:2 ~r:8 () |];
      [|
        spec ~name:"A" ~id:0 ~t_w_max:2 ~dmin:1 ~dmax:2 ~r:10 ();
        spec ~name:"B" ~id:1 ~t_w_max:2 ~dmin:1 ~dmax:2 ~r:10 ();
      |];
      [|
        (* an unsafe pair *)
        spec ~name:"A" ~id:0 ~t_w_max:1 ~dmin:3 ~dmax:4 ~r:20 ();
        spec ~name:"B" ~id:1 ~t_w_max:1 ~dmin:3 ~dmax:4 ~r:20 ();
      |];
      [|
        spec ~name:"A" ~id:0 ~t_w_max:1 ~dmin:2 ~dmax:3 ~r:9 ();
        spec ~name:"B" ~id:1 ~t_w_max:5 ~dmin:1 ~dmax:3 ~r:11 ();
      |];
    ]
  in
  List.iter
    (fun g ->
      let d =
        is_safe_verdict (Core.Dverify.verify g).Core.Dverify.verdict
      in
      let t = Core.Ta_model.verify ~max_states:500_000 g in
      let ta_safe =
        match t.Core.Ta_model.outcome with
        | `Safe -> true
        | `Unsafe -> false
        | `Undetermined _ -> Alcotest.fail "ta must decide within the cap"
      in
      check_bool "ta = discrete" true (ta_safe = d))
    groups

let test_ta_model_layout () =
  let n = 3 in
  check_int "store size" 20 (Core.Ta_model.Layout.store_size ~n);
  check_int "cT clock" 4 (Core.Ta_model.Layout.clock_ct ~n);
  check_int "x clock" 5 (Core.Ta_model.Layout.clock_x ~n)

(* ------------------------------------------------------------------ *)
(* Mapping *)

let test_mapping_singletons () =
  (* a verifier that rejects every pair forces one slot each *)
  let apps = [ app "A" 100; app "B" 100; app "C" 100 ] in
  let verifier specs = if Array.length specs > 1 then `Unsafe else `Safe in
  let o = Core.Mapping.first_fit ~verifier apps in
  check_int "three slots" 3 (List.length o.Core.Mapping.slots)

let test_mapping_all_in_one () =
  let apps = [ app "A" 100; app "B" 100; app "C" 100 ] in
  let o = Core.Mapping.first_fit ~verifier:(fun _ -> `Safe) apps in
  check_int "one slot" 1 (List.length o.Core.Mapping.slots);
  check_int "verifications" 2 o.Core.Mapping.verifications

let test_mapping_sort_order () =
  (* smaller T*_w first; our synthetic apps share a table so sorting is
     by name *)
  let apps = [ app "B" 100; app "A" 100 ] in
  match Core.Mapping.sort_order apps with
  | [ first; second ] ->
    check_bool "A first" true (String.equal first.Core.App.name "A");
    check_bool "B second" true (String.equal second.Core.App.name "B")
  | _ -> Alcotest.fail "expected two apps"

let test_mapping_uses_real_verifier () =
  (* two identical apps with enough slack share a slot *)
  let apps = [ app "A" 150; app "B" 150 ] in
  let o = Core.Mapping.first_fit apps in
  check_bool "at most two slots" true (List.length o.Core.Mapping.slots <= 2);
  (* and each slot group passes the verifier by construction *)
  List.iter
    (fun slot ->
      let specs = Core.Mapping.specs_of_group slot.Core.Mapping.apps in
      match (Core.Dverify.verify specs).Core.Dverify.verdict with
      | Core.Dverify.Safe -> ()
      | Core.Dverify.Unsafe _ | Core.Dverify.Undetermined _ ->
        Alcotest.fail "mapped group must verify")
    o.Core.Mapping.slots

let test_mapping_optimal_beats_or_ties_first_fit () =
  (* a verifier that allows pairs only when the first app's name is "A"
     makes first-fit suboptimal for the order B,C,A... use a synthetic
     criterion: groups of size <= 2 whose names differ are safe *)
  let apps = [ app "A" 100; app "B" 100; app "C" 100; app "D" 100 ] in
  let pairs_only specs = if Array.length specs <= 2 then `Safe else `Unsafe in
  let ff = Core.Mapping.first_fit ~verifier:pairs_only apps in
  let opt = Core.Mapping.optimal ~verifier:pairs_only apps in
  check_int "optimal two slots" 2 (List.length opt.Core.Mapping.slots);
  check_bool "optimal <= first-fit" true
    (List.length opt.Core.Mapping.slots <= List.length ff.Core.Mapping.slots);
  (* every optimal group passes the verifier *)
  List.iter
    (fun slot ->
      check_bool "group safe" true
        (pairs_only (Core.Mapping.specs_of_group slot.Core.Mapping.apps) = `Safe))
    opt.Core.Mapping.slots

let test_mapping_optimal_monotone_pruning () =
  (* with singletons-only safety the optimum is n slots and the pruning
     must avoid verifying any superset of an unsafe pair: at most
     C(n,2) verifier calls happen *)
  let apps = [ app "A" 100; app "B" 100; app "C" 100; app "D" 100 ] in
  let calls = ref 0 in
  let singles_only specs =
    incr calls;
    if Array.length specs <= 1 then `Safe else `Unsafe
  in
  let opt = Core.Mapping.optimal ~verifier:singles_only apps in
  check_int "four slots" 4 (List.length opt.Core.Mapping.slots);
  check_bool "pruning bound" true (!calls <= 6);
  check_int "reported count" !calls opt.Core.Mapping.verifications

let test_mapping_optimal_covers_everything () =
  let apps = [ app "A" 100; app "B" 100; app "C" 100 ] in
  let opt = Core.Mapping.optimal apps in
  let names =
    List.concat_map
      (fun s -> List.map (fun a -> a.Core.App.name) s.Core.Mapping.apps)
      opt.Core.Mapping.slots
    |> List.sort compare
  in
  check_bool "partition covers all" true (names = [ "A"; "B"; "C" ])

(* ------------------------------------------------------------------ *)
(* Baseline parameters *)

let test_baseline_params () =
  let bp = Core.Baseline_params.compute plant gains ~j_star:25 in
  let t = Lazy.force table in
  check_bool "w* >= 0" true (bp.Core.Baseline_params.w_star >= 0);
  (* holding to full rejection occupies at least the dedicated-slot
     settling time J_T (the wait-0 hold settles exactly at J_T) *)
  check_bool "occupancy covers J_T" true
    (bp.Core.Baseline_params.c_occ >= t.Core.Dwell.jt);
  let s = Core.Baseline_params.to_spec ~id:0 ~name:"X" ~r:100 bp in
  check_int "spec deadline" bp.Core.Baseline_params.w_star s.Sched.Baseline.w_star

(* ------------------------------------------------------------------ *)
(* Table_codec *)

let test_codec_rle_roundtrip () =
  let a = [| 3; 3; 3; 4; 4; 5; 3 |] in
  let rle = Core.Table_codec.encode a in
  check_bool "rle" true (rle = [ (3, 3); (4, 2); (5, 1); (3, 1) ]);
  check_bool "roundtrip" true (Core.Table_codec.decode rle = a);
  check_int "words" 8 (Core.Table_codec.encoded_words rle)

let test_codec_table_roundtrip () =
  let t = Lazy.force table in
  match Core.Table_codec.table_of_string (Core.Table_codec.table_to_string t) with
  | Ok t' -> check_bool "table roundtrip" true (t' = t)
  | Error e -> Alcotest.fail e

let test_codec_rejects_garbage () =
  check_bool "garbage" true
    (Result.is_error (Core.Table_codec.table_of_string "nonsense"));
  check_bool "bad runs" true
    (Result.is_error (Core.Table_codec.table_of_string "1 2 3 4 | x | y | z | w"))

let test_codec_dictionary () =
  let alternating = Array.init 20 (fun i -> 7 + (i mod 2)) in
  check_int "distinct" 2 (Core.Table_codec.distinct_values alternating);
  (* 2 dict words + 20 bits -> 1 word *)
  check_int "dict words" 3 (Core.Table_codec.dictionary_words alternating);
  (* RLE is terrible on alternation: 20 runs = 40 words *)
  check_int "rle words" 40
    (Core.Table_codec.encoded_words (Core.Table_codec.encode alternating))

(* ------------------------------------------------------------------ *)
(* Lazy preemption policy *)

let test_lazy_policy_on_pairs () =
  (* a pair that is safe under both policies *)
  let g =
    [|
      spec ~name:"A" ~id:0 ~t_w_max:3 ~dmin:1 ~dmax:2 ~r:12 ();
      spec ~name:"B" ~id:1 ~t_w_max:3 ~dmin:1 ~dmax:2 ~r:12 ();
    |]
  in
  List.iter
    (fun policy ->
      match (Core.Dverify.verify ~policy g).Core.Dverify.verdict with
      | Core.Dverify.Safe -> ()
      | Core.Dverify.Unsafe _ | Core.Dverify.Undetermined _ ->
        Alcotest.fail "pair must be safe")
    [ Sched.Slot_state.Eager_preempt; Sched.Slot_state.Lazy_preempt ]

let test_lazy_policy_can_break_groups () =
  (* three apps whose slack cannot absorb the postponed preemption *)
  let g =
    [|
      spec ~name:"A" ~id:0 ~t_w_max:4 ~dmin:2 ~dmax:6 ~r:20 ();
      spec ~name:"B" ~id:1 ~t_w_max:4 ~dmin:2 ~dmax:6 ~r:20 ();
      spec ~name:"C" ~id:2 ~t_w_max:4 ~dmin:2 ~dmax:6 ~r:20 ();
    |]
  in
  let safe policy =
    is_safe_verdict (Core.Dverify.verify ~policy g).Core.Dverify.verdict
  in
  check_bool "eager safe" true (safe Sched.Slot_state.Eager_preempt);
  check_bool "lazy unsafe" false (safe Sched.Slot_state.Lazy_preempt)

(* ------------------------------------------------------------------ *)
(* Margins *)

let test_margin_single_app () =
  let a = app "A" 120 in
  let r = Core.Margin.analyse ~apps:[ a ] () in
  check_bool "safe" true r.Core.Margin.safe;
  match r.Core.Margin.rows with
  | [ row ] ->
    check_bool "granted at wait 0" true (row.Core.Margin.worst_wait = Some 0);
    (match row.Core.Margin.worst_settling with
     | Some ws ->
       check_bool "within budget" true (ws <= a.Core.App.j_star);
       check_bool "margin consistent" true
         (row.Core.Margin.margin = Some (a.Core.App.j_star - ws))
     | None -> Alcotest.fail "expected settling")
  | _ -> Alcotest.fail "one row expected"

let test_margin_pair_within_budget () =
  let a = app "A" 150 and b = app "B" 150 in
  let r = Core.Margin.analyse ~apps:[ a; b ] () in
  check_bool "safe" true r.Core.Margin.safe;
  List.iter
    (fun row ->
      match row.Core.Margin.margin with
      | Some m -> check_bool (row.Core.Margin.name ^ " margin >= 0") true (m >= 0)
      | None -> Alcotest.fail "expected margin")
    r.Core.Margin.rows

let test_margin_unsafe_group () =
  let tight k =
    Sched.Appspec.make ~id:k ~name:(Printf.sprintf "T%d" k) ~t_w_max:1
      ~t_dw_min:[| 3; 3 |] ~t_dw_max:[| 4; 4 |] ~r:20
  in
  ignore tight;
  (* unsafe via apps: reuse the plant but with a custom verifier is not
     possible here; instead check via the Dverify stats directly *)
  let g =
    [|
      spec ~name:"A" ~id:0 ~t_w_max:1 ~dmin:3 ~dmax:4 ~r:20 ();
      spec ~name:"B" ~id:1 ~t_w_max:1 ~dmin:3 ~dmax:4 ~r:20 ();
    |]
  in
  let r = Core.Dverify.verify g in
  check_bool "unsafe" true
    (match r.Core.Dverify.verdict with Core.Dverify.Unsafe _ -> true | _ -> false)

let test_dverify_max_wait_recorded () =
  let g =
    [|
      spec ~name:"A" ~id:0 ~t_w_max:3 ~dmin:2 ~dmax:3 ~r:14 ();
      spec ~name:"B" ~id:1 ~t_w_max:3 ~dmin:2 ~dmax:3 ~r:14 ();
    |]
  in
  let r = Core.Dverify.verify g in
  (match r.Core.Dverify.verdict with
   | Core.Dverify.Safe -> ()
   | Core.Dverify.Unsafe _ | Core.Dverify.Undetermined _ ->
     Alcotest.fail "expected safe");
  Array.iteri
    (fun i w ->
      check_bool (Printf.sprintf "app %d granted" i) true (w >= 0);
      check_bool "within T*w" true (w <= 3);
      (* contention forces someone to wait at least the blocker's min
         dwell *)
      ignore i)
    r.Core.Dverify.stats.Core.Dverify.max_wait;
  check_bool "someone waits" true
    (Array.exists (fun w -> w >= 2) r.Core.Dverify.stats.Core.Dverify.max_wait)

(* ------------------------------------------------------------------ *)
(* UPPAAL export *)

(* a minimal XML well-formedness scanner: tags balance, attributes are
   quoted, entities are known *)
let xml_balanced doc =
  let len = String.length doc in
  let stack = ref [] in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < len do
    if doc.[!i] = '<' then begin
      match String.index_from_opt doc !i '>' with
      | None -> ok := false
      | Some close ->
        let inner = String.sub doc (!i + 1) (close - !i - 1) in
        if String.length inner = 0 then ok := false
        else if inner.[0] = '?' || inner.[0] = '!' then () (* prolog/doctype *)
        else if inner.[0] = '/' then begin
          let name = String.sub inner 1 (String.length inner - 1) in
          match !stack with
          | top :: rest when String.equal top name -> stack := rest
          | _ -> ok := false
        end
        else begin
          let name =
            match String.index_opt inner ' ' with
            | Some sp -> String.sub inner 0 sp
            | None -> inner
          in
          if inner.[String.length inner - 1] <> '/' then stack := name :: !stack
        end;
        i := close
    end;
    incr i
  done;
  !ok && !stack = []

let uppaal_specs () =
  [|
    spec ~name:"A" ~id:0 ~t_w_max:2 ~dmin:1 ~dmax:2 ~r:10 ();
    spec ~name:"B" ~id:1 ~t_w_max:4 ~dmin:2 ~dmax:3 ~r:12 ();
  |]

let test_uppaal_model_well_formed () =
  let doc = Core.Uppaal_export.model (uppaal_specs ()) in
  check_bool "balanced tags" true (xml_balanced doc);
  let contains needle =
    let nl = String.length needle and dl = String.length doc in
    let rec go i = i + nl <= dl && (String.equal (String.sub doc i nl) needle || go (i + 1)) in
    go 0
  in
  check_bool "doctype" true (contains "DTD Flat System");
  check_bool "N declared" true (contains "const int N = 2;");
  check_bool "TWMAX" true (contains "TWMAX[N] = {2, 4}");
  check_bool "padded table" true (contains "DTMIN[N][MAXW+1]");
  check_bool "query embedded" true (contains "A[] forall (i : id_t) not App(i).Error");
  check_bool "scheduler template" true (contains "<name>Scheduler</name>");
  check_bool "escaped ampersands" true (contains "&amp;&amp;");
  (* no raw '&&' may survive outside escaped form *)
  let raw_and =
    let rec go i = i + 2 <= String.length doc && (String.equal (String.sub doc i 2) "&&" || go (i + 1)) in
    go 0
  in
  check_bool "no raw &&" false raw_and

let test_uppaal_write () =
  let dir = Filename.temp_file "cpsdim" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  (match Core.Uppaal_export.write ~dir ~basename:"g" (uppaal_specs ()) with
   | Ok path ->
     check_bool "xml exists" true (Sys.file_exists path);
     check_bool "query exists" true (Sys.file_exists (Filename.concat dir "g.q"));
     Sys.remove path;
     Sys.remove (Filename.concat dir "g.q");
     Unix.rmdir dir
   | Error m -> Alcotest.fail m)

(* ------------------------------------------------------------------ *)
(* Fleet *)

let test_fleet_deterministic () =
  let params = { Core.Fleet.default_params with count = 3 } in
  let f1 = Core.Fleet.generate ~params () in
  let f2 = Core.Fleet.generate ~params () in
  check_int "count" 3 (List.length f1);
  List.iter2
    (fun (a : Core.App.t) (b : Core.App.t) ->
      check_bool "same table" true (a.Core.App.table = b.Core.App.table))
    f1 f2

let test_fleet_apps_are_wellformed () =
  let fleet =
    Core.Fleet.generate ~params:{ Core.Fleet.default_params with count = 3 } ()
  in
  List.iteri
    (fun i (a : Core.App.t) ->
      (* spec construction revalidates all scheduling invariants *)
      let s = Core.App.spec a ~id:i in
      check_bool "J* < r" true (a.Core.App.j_star < a.Core.App.r);
      check_bool "table valid" true
        (Core.Dwell.validate a.Core.App.table = Ok ());
      check_int "id" i s.Sched.Appspec.id)
    fleet

(* ------------------------------------------------------------------ *)
(* Properties *)

(* 2-4-app groups; about half repeat app 0's timing as app 1, so the
   symmetry quotient has an orbit to collapse.  Pairs draw from the
   ranges the pair-only generator used; larger groups get tighter dwell
   and slack ranges so the zone engine stays affordable. *)
let gen_group_specs =
  QCheck2.Gen.(
    let* n = int_range 2 4 in
    let pair = n = 2 in
    let timing =
      let* t_w_max = int_range 0 (Int.max 3 n) in
      let* dmin = int_range 1 (if pair then 3 else 2) in
      let* extra = int_range 0 (if pair then 2 else 1) in
      let* slack = int_range 1 (if pair then 8 else 3) in
      return (t_w_max, dmin, dmin + extra, t_w_max + dmin + extra + slack)
    in
    let* timings = list_repeat n timing in
    let* twin = bool in
    let timings = Array.of_list timings in
    if twin then timings.(1) <- timings.(0);
    return
      (Array.mapi
         (fun id (t_w_max, dmin, dmax, r) ->
           Sched.Appspec.make ~id
             ~name:(String.make 1 (Char.chr (Char.code 'A' + id)))
             ~t_w_max
             ~t_dw_min:(Array.make (t_w_max + 1) dmin)
             ~t_dw_max:(Array.make (t_w_max + 1) dmax)
             ~r)
         timings))

(* replay a counterexample's disturbance schedule through the canonical
   transition function: it must produce an error *)
let replays_to_error g (ce : Core.Dverify.counterexample) =
  let st = ref (Sched.Slot_state.initial g) in
  let seen = ref false in
  List.iter
    (fun (disturbed, _) ->
      let st', out = Sched.Slot_state.tick g !st ~disturbed in
      if out.Sched.Slot_state.new_errors <> [] then seen := true;
      st := st')
    ce.Core.Dverify.steps;
  !seen

(* the engine against the breadth-first reference: the same verdict,
   on Safe the same max-wait table, on Unsafe two real witnesses with
   the reference's no longer than the engine's *)
let agrees_with_reference g (engine : Core.Dverify.result)
    (reference : Core.Dverify.result) =
  match (engine.Core.Dverify.verdict, reference.Core.Dverify.verdict) with
  | Core.Dverify.Safe, Core.Dverify.Safe ->
    engine.Core.Dverify.stats.Core.Dverify.max_wait
    = reference.Core.Dverify.stats.Core.Dverify.max_wait
  | Core.Dverify.Unsafe e, Core.Dverify.Unsafe r ->
    replays_to_error g e && replays_to_error g r
    && List.length r.Core.Dverify.steps <= List.length e.Core.Dverify.steps
  | _ -> false

(* The zone engine is exact but its zone graph explodes on some safe
   4-app groups: it must decide every group of up to three apps and
   agree whenever it decides a 4-app group within its budget. *)
let prop_engines_agree =
  QCheck2.Test.make
    ~name:"discrete BFS = subsumption = TA zones = quotient" ~count:40
    gen_group_specs (fun g ->
      let engine = Core.Dverify.verify g and reference = Core.Dverify.reference g in
      let bounded_agree k =
        agrees_with_reference g
          (Core.Dverify.verify_bounded ~instances:k g)
          (Core.Dverify.reference ~instances:k g)
      in
      let zones =
        let max_states = if Array.length g <= 3 then 400_000 else 50_000 in
        match (Core.Ta_model.verify ~max_states g).Core.Ta_model.outcome with
        | `Safe -> Some true
        | `Unsafe -> Some false
        | `Undetermined _ -> None
      in
      agrees_with_reference g engine reference
      && bounded_agree 1 && bounded_agree 2
      &&
      match zones with
      | Some z -> z = is_safe_verdict reference.Core.Dverify.verdict
      | None -> Array.length g = 4)

let prop_counterexample_replays =
  QCheck2.Test.make ~name:"every counterexample replays to an error" ~count:40
    gen_group_specs (fun g ->
      match (Core.Dverify.verify g).Core.Dverify.verdict with
      | Core.Dverify.Safe -> true
      | Core.Dverify.Undetermined _ -> false
      | Core.Dverify.Unsafe ce -> replays_to_error g ce)

(* random pole-placed gain pairs: the TT poles on a ring of radius
   rho_t, the ET poles near rho_e plus a fast one, and a budget J* *)
let gen_design =
  QCheck2.Gen.(
    triple (float_range 0.15 0.45) (float_range 0.75 0.92) (int_range 18 35))

let pole_placed p ~rho_t ~rho_e =
  let n = Control.Plant.order p in
  let ring rho ratio = List.init n (fun i -> (rho *. (ratio ** float_of_int i), 0.)) in
  let kt = Control.Pole_place.place_tt p (ring rho_t 0.9) in
  let ke = Control.Pole_place.place_et p (ring rho_e 0.95 @ [ (0.3, 0.) ]) in
  Control.Switched.make_gains p ~kt ~ke

let prop_dwell_window_always_feasible =
  (* the suffix-safe invariant: EVERY dwell in [T-, T+] meets J* (so a
     preemption landing anywhere in the admissible window is safe) *)
  QCheck2.Test.make ~name:"every admissible dwell meets the budget" ~count:15
    gen_design
    (fun (rho_t, rho_e, j_star) ->
      let g = pole_placed plant ~rho_t ~rho_e in
      match Core.Dwell.compute plant g ~j_star with
      | exception Core.Dwell.Infeasible _ -> true
      | t ->
        let ok = ref true in
        Array.iteri
          (fun t_w dmin ->
            for t_dw = dmin to t.Core.Dwell.t_dw_max.(t_w) do
              match Core.Strategy.settling plant g ~t_w ~t_dw with
              | Some j -> if j > j_star then ok := false
              | None -> ok := false
            done)
          t.Core.Dwell.t_dw_min;
        !ok)

(* the kernel against the reference on the test plant and the six
   case-study plants; every wait up to T*_w + 3 *)
let prop_kernel_matches_reference =
  QCheck2.Test.make ~name:"settle kernel = reference simulation" ~count:40
    QCheck2.Gen.(pair (int_bound (List.length kernel_plants - 1)) gen_design)
    (fun (i, (rho_t, rho_e, j_star)) ->
      let p = List.nth kernel_plants i in
      let g = pole_placed p ~rho_t ~rho_e in
      let t_w_max =
        match Core.Dwell.compute p g ~j_star with
        | t -> t.Core.Dwell.t_w_max
        | exception Core.Dwell.Infeasible _ -> 0
      in
      match kernel_disagreement p g ~j_star ~t_w_hi:(t_w_max + 3) with
      | None -> true
      | Some m -> QCheck2.Test.fail_report m)

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"RLE decode . encode = id" ~count:100
    QCheck2.Gen.(array_size (int_range 1 30) (int_range 0 9))
    (fun a -> Core.Table_codec.decode (Core.Table_codec.encode a) = a)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_engines_agree;
      prop_counterexample_replays;
      prop_dwell_window_always_feasible;
      prop_codec_roundtrip;
    ]
  @ [
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 2019 |])
        prop_kernel_matches_reference;
    ]

let () =
  Alcotest.run "core"
    [
      ( "strategy",
        [
          Alcotest.test_case "mode sequence" `Quick test_mode_sequence;
          Alcotest.test_case "response shape" `Quick test_strategy_response_shape;
        ] );
      ( "dwell",
        [
          Alcotest.test_case "validates" `Quick test_dwell_validates;
          Alcotest.test_case "min dwell meets J*" `Quick test_dwell_min_meets_requirement;
          Alcotest.test_case "below min misses" `Quick test_dwell_below_min_fails;
          Alcotest.test_case "past T*_w infeasible" `Quick test_dwell_beyond_t_w_max_infeasible;
          Alcotest.test_case "max dwell saturates" `Quick test_dwell_max_is_saturation;
          Alcotest.test_case "infeasible requirements" `Quick test_dwell_infeasible_cases;
          Alcotest.test_case "stride" `Quick test_dwell_stride;
          Alcotest.test_case "surface" `Quick test_dwell_surface_consistency;
          Alcotest.test_case "deadline" `Quick test_deadline;
        ] );
      ( "settle kernel",
        [
          Alcotest.test_case "bound dominates the tail" `Quick
            test_kernel_bound_dominates;
          Alcotest.test_case "unstable ET uncertified" `Quick
            test_kernel_unstable_et;
          Alcotest.test_case "slow tail hits the cap" `Quick
            test_kernel_slow_tail_hits_cap;
        ] );
      ( "app",
        [
          Alcotest.test_case "spec" `Quick test_app_spec;
          Alcotest.test_case "bad r" `Quick test_app_rejects_bad_r;
        ] );
      ( "dverify",
        [
          Alcotest.test_case "single safe" `Quick test_dverify_single_safe;
          Alcotest.test_case "unsafe with counterexample" `Quick test_dverify_unsafe_pair_with_counterexample;
          Alcotest.test_case "modes agree" `Quick test_dverify_modes_agree;
          Alcotest.test_case "bounded consistent" `Quick test_dverify_bounded_consistent;
          Alcotest.test_case "wide packed layout" `Quick test_dverify_wide_layout;
        ] );
      ( "ta_model",
        [
          Alcotest.test_case "agrees with discrete" `Quick test_ta_model_agrees_with_discrete;
          Alcotest.test_case "layout" `Quick test_ta_model_layout;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "singletons" `Quick test_mapping_singletons;
          Alcotest.test_case "all in one" `Quick test_mapping_all_in_one;
          Alcotest.test_case "sort order" `Quick test_mapping_sort_order;
          Alcotest.test_case "real verifier" `Quick test_mapping_uses_real_verifier;
          Alcotest.test_case "optimal ties or beats first-fit" `Quick
            test_mapping_optimal_beats_or_ties_first_fit;
          Alcotest.test_case "optimal pruning" `Quick test_mapping_optimal_monotone_pruning;
          Alcotest.test_case "optimal covers all" `Quick test_mapping_optimal_covers_everything;
        ] );
      ( "baseline params",
        [ Alcotest.test_case "compute" `Quick test_baseline_params ] );
      ( "table codec",
        [
          Alcotest.test_case "rle roundtrip" `Quick test_codec_rle_roundtrip;
          Alcotest.test_case "table roundtrip" `Quick test_codec_table_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "dictionary encoding" `Quick test_codec_dictionary;
        ] );
      ( "margins",
        [
          Alcotest.test_case "single app" `Quick test_margin_single_app;
          Alcotest.test_case "pair within budget" `Quick test_margin_pair_within_budget;
          Alcotest.test_case "unsafe group" `Quick test_margin_unsafe_group;
          Alcotest.test_case "max wait recorded" `Quick test_dverify_max_wait_recorded;
        ] );
      ( "uppaal export",
        [
          Alcotest.test_case "well-formed model" `Quick test_uppaal_model_well_formed;
          Alcotest.test_case "write files" `Quick test_uppaal_write;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "deterministic" `Quick test_fleet_deterministic;
          Alcotest.test_case "well-formed" `Quick test_fleet_apps_are_wellformed;
        ] );
      ( "lazy preemption",
        [
          Alcotest.test_case "pairs stay safe" `Quick test_lazy_policy_on_pairs;
          Alcotest.test_case "groups can break" `Quick test_lazy_policy_can_break_groups;
        ] );
      ("properties", props);
    ]
