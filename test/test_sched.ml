(* Tests for the scheduling substrate: appspec validation, the
   single-slot transition function, the arbiter wrapper, and the
   baseline analyses. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let spec ?(id = 0) ?(name = "A") ?(t_w_max = 2) ?(t_dw_min = [| 2; 2; 2 |])
    ?(t_dw_max = [| 3; 3; 3 |]) ?(r = 20) () =
  Sched.Appspec.make ~id ~name ~t_w_max ~t_dw_min ~t_dw_max ~r

(* ------------------------------------------------------------------ *)
(* Appspec *)

let test_appspec_ok () =
  let s = spec () in
  check_int "max service" 5 (Sched.Appspec.max_service s);
  let s2 = Sched.Appspec.with_id s 3 in
  check_int "with_id" 3 s2.Sched.Appspec.id

let test_appspec_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "bad array length" true
    (raises (fun () -> ignore (spec ~t_dw_min:[| 2; 2 |] ())));
  check_bool "zero dwell" true
    (raises (fun () -> ignore (spec ~t_dw_min:[| 0; 2; 2 |] ())));
  check_bool "min>max" true
    (raises (fun () -> ignore (spec ~t_dw_min:[| 4; 4; 4 |] ())));
  check_bool "r too small" true (raises (fun () -> ignore (spec ~r:5 ())))

(* ------------------------------------------------------------------ *)
(* Slot_state: single application *)

let single = [| spec () |]

let tick specs st disturbed = Sched.Slot_state.tick specs st ~disturbed

let test_single_app_lifecycle () =
  let st = Sched.Slot_state.initial single in
  check_bool "starts steady" true (Sched.Slot_state.all_steady st);
  (* disturb: admitted and granted in the same tick (slot free) *)
  let st, out = tick single st [ 0 ] in
  check_bool "granted at wait 0" true (out.Sched.Slot_state.granted = [ (0, 0) ]);
  check_bool "owner" true (st.Sched.Slot_state.owner = Some 0);
  (* dwell: t_dw_max(0) = 3, so release happens when ct reaches 3 *)
  let st, _ = tick single st [] in
  let st, _ = tick single st [] in
  let st, out = tick single st [] in
  check_bool "released" true (out.Sched.Slot_state.released = [ 0 ]);
  check_bool "slot free" true (st.Sched.Slot_state.owner = None);
  (match Sched.Slot_state.phase st 0 with
   | Sched.Slot_state.Safe { age } -> check_int "age from seen" 3 age
   | _ -> Alcotest.fail "expected Safe");
  (* quiet until r = 20 samples since seen *)
  let st = ref st in
  for _ = 1 to 16 do
    let st', _ = tick single !st [] in
    st := st'
  done;
  (match Sched.Slot_state.phase !st 0 with
   | Sched.Slot_state.Safe { age } -> check_int "age 19" 19 age
   | _ -> Alcotest.fail "still safe");
  let st', _ = tick single !st [] in
  check_bool "steady again" true (Sched.Slot_state.all_steady st')

let test_error_when_never_granted () =
  (* two apps, one hogs the slot with a huge dwell; the other misses *)
  let hog =
    spec ~id:0 ~name:"H" ~t_w_max:0 ~t_dw_min:[| 10 |] ~t_dw_max:[| 10 |] ~r:30 ()
  in
  let victim =
    spec ~id:1 ~name:"V" ~t_w_max:2 ~t_dw_min:[| 1; 1; 1 |]
      ~t_dw_max:[| 2; 2; 2 |] ~r:20 ()
  in
  let specs = [| hog; victim |] in
  let st = Sched.Slot_state.initial specs in
  let st, _ = tick specs st [ 0 ] in
  (* hog granted *)
  let st, _ = tick specs st [ 1 ] in
  (* victim waits; hog's min dwell is 10 so no preemption *)
  let st = ref st in
  let errors = ref [] in
  for _ = 1 to 4 do
    let st', out = tick specs !st [] in
    errors := out.Sched.Slot_state.new_errors @ !errors;
    st := st'
  done;
  check_bool "victim missed" true (List.mem 1 !errors);
  check_bool "error phase" true (Sched.Slot_state.has_error !st)

let test_preemption_after_min_dwell () =
  let a =
    spec ~id:0 ~name:"A" ~t_w_max:5
      ~t_dw_min:(Array.make 6 2) ~t_dw_max:(Array.make 6 5) ~r:30 ()
  in
  let b =
    spec ~id:1 ~name:"B" ~t_w_max:5
      ~t_dw_min:(Array.make 6 2) ~t_dw_max:(Array.make 6 5) ~r:30 ()
  in
  let specs = [| a; b |] in
  let st = Sched.Slot_state.initial specs in
  let st, _ = tick specs st [ 0 ] in
  (* A granted at ct=0 *)
  let st, out = tick specs st [ 1 ] in
  (* B arrives; A has ct=1 < dt_min=2: no preemption yet *)
  check_bool "no preemption yet" true (out.Sched.Slot_state.preempted = []);
  check_bool "A still owns" true (st.Sched.Slot_state.owner = Some 0);
  let st, out = tick specs st [] in
  (* ct=2 = dt_min: preempt *)
  check_bool "A preempted" true (out.Sched.Slot_state.preempted = [ 0 ]);
  check_bool "B granted" true
    (List.mem_assoc 1 out.Sched.Slot_state.granted);
  check_bool "B owns" true (st.Sched.Slot_state.owner = Some 1)

let test_edf_orders_by_slack () =
  (* tighter T*_w gets the slot first on simultaneous arrival *)
  let tight =
    spec ~id:0 ~name:"tight" ~t_w_max:1 ~t_dw_min:[| 1; 1 |]
      ~t_dw_max:[| 1; 1 |] ~r:20 ()
  in
  let loose =
    spec ~id:1 ~name:"loose" ~t_w_max:8 ~t_dw_min:(Array.make 9 1)
      ~t_dw_max:(Array.make 9 1) ~r:20 ()
  in
  let specs = [| tight; loose |] in
  let st = Sched.Slot_state.initial specs in
  (* arrival order loose-then-tight must still serve tight first *)
  let st, out = tick specs st [ 1; 0 ] in
  check_bool "tight granted first" true
    (List.mem_assoc 0 out.Sched.Slot_state.granted);
  check_bool "loose waits" true
    (match Sched.Slot_state.phase st 1 with
     | Sched.Slot_state.Waiting _ -> true
     | _ -> false)

let test_tie_break_by_arrival_order () =
  let mk id name =
    spec ~id ~name ~t_w_max:3 ~t_dw_min:(Array.make 4 1)
      ~t_dw_max:(Array.make 4 1) ~r:20 ()
  in
  let specs = [| mk 0 "A"; mk 1 "B" |] in
  let st = Sched.Slot_state.initial specs in
  let _, out = tick specs st [ 1; 0 ] in
  (* equal slack: B registered first, so B is served first *)
  check_bool "B first" true (List.mem_assoc 1 out.Sched.Slot_state.granted)

let test_disturb_non_steady_rejected () =
  let specs = single in
  let st = Sched.Slot_state.initial specs in
  let st, _ = tick specs st [ 0 ] in
  check_bool "raises" true
    (try
       ignore (tick specs st [ 0 ]);
       false
     with Invalid_argument _ -> true)

(* a bounded working form collapses a [Safe] application whose budget
   is spent straight to [Steady] (the bounded verifier relies on it to
   shrink its state space), and keeps the quiet countdown of one with
   budget left *)
let test_force_steady () =
  let module S = Sched.Slot_state in
  let module P = S.Packed in
  let specs = single in
  let after_release instances =
    let l = P.layout ~instances specs in
    let w = P.work l in
    let tick disturbed =
      ignore
        (S.tick_into ~policy:S.Eager_preempt ~slot_available:true specs w
           ~disturbed)
    in
    tick [| 0 |];
    for _ = 1 to 3 do
      tick [||]
    done;
    let e = Array.make (P.length l) 0 in
    P.write l w e;
    (P.decode l e, P.budget l e 0)
  in
  let spent, left = after_release 1 in
  check_bool "snapped" true (S.all_steady spent);
  check_int "budget spent" 0 left;
  let kept, left = after_release 2 in
  (match S.phase kept 0 with
   | S.Safe { age } -> check_int "quiet age kept" 3 age
   | _ -> Alcotest.fail "expected safe");
  check_int "budget left" 1 left

let test_lazy_preemption_postponed () =
  (* under Lazy_preempt the occupant keeps the slot until a waiter is on
     its last admissible sample *)
  let mk id name =
    spec ~id ~name ~t_w_max:5 ~t_dw_min:(Array.make 6 2)
      ~t_dw_max:(Array.make 6 8) ~r:30 ()
  in
  let specs = [| mk 0 "A"; mk 1 "B" |] in
  let policy = Sched.Slot_state.Lazy_preempt in
  let st = Sched.Slot_state.initial specs in
  let st, _ = Sched.Slot_state.tick ~policy specs st ~disturbed:[ 0 ] in
  let st, _ = Sched.Slot_state.tick ~policy specs st ~disturbed:[ 1 ] in
  (* eager would preempt at ct = 2; lazy waits until B's wt = 5 *)
  let st = ref st in
  let preempt_at = ref (-1) in
  for k = 2 to 8 do
    let st', out = Sched.Slot_state.tick ~policy specs !st ~disturbed:[] in
    if out.Sched.Slot_state.preempted <> [] && !preempt_at < 0 then preempt_at := k;
    st := st'
  done;
  check_int "preempted when B at last chance" 6 !preempt_at;
  check_bool "no error" false (Sched.Slot_state.has_error !st)

(* ------------------------------------------------------------------ *)
(* Arbiter *)

let test_arbiter_owner_trace () =
  let arb = Sched.Arbiter.create single in
  Sched.Arbiter.run arb ~horizon:6 ~disturbances:[ (1, 0) ];
  let trace = Sched.Arbiter.owner_trace arb in
  check_int "length" 6 (Array.length trace);
  check_bool "idle first" true (trace.(0) = None);
  check_bool "owned at 1" true (trace.(1) = Some 0);
  check_bool "owned through dwell" true (trace.(3) = Some 0);
  check_bool "released by 4" true (trace.(4) = None);
  check_bool "no errors" true (Sched.Arbiter.errors arb = [])

let test_arbiter_log_order () =
  let arb = Sched.Arbiter.create single in
  Sched.Arbiter.run arb ~horizon:6 ~disturbances:[ (0, 0) ];
  match Sched.Arbiter.log arb with
  | { event = `Grant (0, 0); sample = 0 } :: { event = `Release 0; sample = 3 } :: _ -> ()
  | _ -> Alcotest.fail "unexpected log"

let test_arbiter_past_disturbance_rejected () =
  let arb = Sched.Arbiter.create single in
  Sched.Arbiter.run arb ~horizon:2 ~disturbances:[];
  check_bool "raises" true
    (try
       Sched.Arbiter.run arb ~horizon:2 ~disturbances:[ (0, 0) ];
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Baseline *)

let bspec ~id ~name ~w_star ~c_occ ~r =
  Sched.Baseline.make_spec ~id ~name ~w_star ~c_occ ~r

let test_baseline_single_always_schedulable () =
  let s = bspec ~id:0 ~name:"A" ~w_star:5 ~c_occ:10 ~r:50 in
  check_bool "dm" true (Sched.Baseline.schedulable Sched.Baseline.Dm [ s ]);
  check_bool "delayed" true
    (Sched.Baseline.schedulable Sched.Baseline.Delayed [ s ])

let test_baseline_blocking () =
  (* high-priority app with deadline smaller than the blocker's
     occupancy fails under DM but passes with delayed requests *)
  let hp = bspec ~id:0 ~name:"hp" ~w_star:5 ~c_occ:3 ~r:50 in
  let lp = bspec ~id:1 ~name:"lp" ~w_star:30 ~c_occ:8 ~r:60 in
  check_bool "dm blocked" false
    (Sched.Baseline.schedulable Sched.Baseline.Dm [ hp; lp ]);
  check_bool "delayed ok" true
    (Sched.Baseline.schedulable Sched.Baseline.Delayed [ hp; lp ])

let test_baseline_interference () =
  (* two identical apps: the lower-priority one waits out one occupancy *)
  let a = bspec ~id:0 ~name:"a" ~w_star:10 ~c_occ:6 ~r:40 in
  let b = bspec ~id:1 ~name:"b" ~w_star:10 ~c_occ:6 ~r:40 in
  (match Sched.Baseline.response_bound Sched.Baseline.Dm [ a; b ] b with
   | Some bound -> check_int "b waits for a" 6 bound
   | None -> Alcotest.fail "expected schedulable");
  check_bool "pair fits" true (Sched.Baseline.schedulable Sched.Baseline.Dm [ a; b ])

let test_baseline_first_fit () =
  let mk id w c = bspec ~id ~name:(string_of_int id) ~w_star:w ~c_occ:c ~r:100 in
  (* three apps where any two fit but three do not: a pair costs 6 (one
     occupancy of blocking or interference) <= 10, a triple costs 12 *)
  let specs = [ mk 0 10 6; mk 1 10 6; mk 2 10 6 ] in
  let slots = Sched.Baseline.first_fit Sched.Baseline.Dm specs in
  check_int "two slots" 2 (List.length slots);
  (match slots with
   | [ s1; s2 ] ->
     check_int "first slot pair" 2 (List.length s1);
     check_int "second slot single" 1 (List.length s2)
   | _ -> Alcotest.fail "unexpected packing")

let test_baseline_validation () =
  check_bool "bad c" true
    (try ignore (bspec ~id:0 ~name:"x" ~w_star:1 ~c_occ:0 ~r:10); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_small_spec =
  QCheck2.Gen.(
    let* t_w_max = int_range 0 4 in
    let* dmin = int_range 1 3 in
    let* extra = int_range 0 3 in
    let dmax = dmin + extra in
    let* r = int_range (t_w_max + dmax + 1) (t_w_max + dmax + 15) in
    return
      (Sched.Appspec.make ~id:0 ~name:"P" ~t_w_max
         ~t_dw_min:(Array.make (t_w_max + 1) dmin)
         ~t_dw_max:(Array.make (t_w_max + 1) dmax)
         ~r))

let gen_disturbance_plan =
  QCheck2.Gen.(list_size (int_range 0 6) (int_range 0 40))

let run_pair spec1 spec2 plan1 plan2 =
  (* execute a horizon with best-effort disturbances: a disturbance is
     dropped when its app is not steady (keeps the sporadic model) *)
  let specs = [| spec1; Sched.Appspec.with_id spec2 1 |] in
  let st = ref (Sched.Slot_state.initial specs) in
  let owners = ref [] in
  let violations = ref false in
  for k = 0 to 60 do
    let want =
      (if List.mem k plan1 then [ 0 ] else [])
      @ if List.mem k plan2 then [ 1 ] else []
    in
    let disturbed =
      List.filter
        (fun id ->
          match Sched.Slot_state.phase !st id with
          | Sched.Slot_state.Steady -> true
          | _ -> false)
        want
    in
    let st', out = Sched.Slot_state.tick specs !st ~disturbed in
    (* safety invariant: preemption only after the min dwell *)
    List.iter
      (fun id ->
        match Sched.Slot_state.phase !st id with
        | Sched.Slot_state.Running { ct; dt_min; _ } ->
          (* this app was running before the tick; if preempted now,
             its ct+1 must be >= dt_min *)
          if List.mem id out.Sched.Slot_state.preempted && ct + 1 < dt_min then
            violations := true
        | _ -> ())
      [ 0; 1 ];
    owners := st'.Sched.Slot_state.owner :: !owners;
    st := st'
  done;
  (!owners, !violations)

let prop_min_dwell_respected =
  QCheck2.Test.make ~name:"preemption honours the minimum dwell" ~count:60
    QCheck2.Gen.(quad gen_small_spec gen_small_spec gen_disturbance_plan gen_disturbance_plan)
    (fun (s1, s2, p1, p2) ->
      let _, violations = run_pair s1 s2 p1 p2 in
      not violations)

let prop_single_owner =
  QCheck2.Test.make ~name:"at most one owner, owner is always Running"
    ~count:60
    QCheck2.Gen.(quad gen_small_spec gen_small_spec gen_disturbance_plan gen_disturbance_plan)
    (fun (s1, s2, p1, p2) ->
      let specs = [| s1; Sched.Appspec.with_id s2 1 |] in
      let st = ref (Sched.Slot_state.initial specs) in
      let ok = ref true in
      for k = 0 to 50 do
        let disturbed =
          List.filter
            (fun id ->
              (match Sched.Slot_state.phase !st id with
               | Sched.Slot_state.Steady -> true
               | _ -> false)
              && List.mem k (if id = 0 then p1 else p2))
            [ 0; 1 ]
        in
        let st', _ = Sched.Slot_state.tick specs !st ~disturbed in
        (match st'.Sched.Slot_state.owner with
         | Some id ->
           (match Sched.Slot_state.phase st' id with
            | Sched.Slot_state.Running _ -> ()
            | _ -> ok := false)
         | None ->
           Array.iteri
             (fun _ p ->
               match p with
               | Sched.Slot_state.Running _ -> ok := false
               | _ -> ())
             st'.Sched.Slot_state.phases);
        st := st'
      done;
      !ok)

(* The packed codec over runs of random 2-4-app groups, ticked in a
   working form (either policy, with blackouts, bounded or not): on every
   state reached, writing inverts reading, equal encodings are equal
   (decoded) states with equal budgets, the disturbable bit set matches [disturbable], the
   antichain's comparisons agree with the decoded states (same state
   but for [Safe] ages, every age at least as large), and when apps 0
   and 1 are twins the symmetry sort orders them like the polymorphic
   order on (phase, budget, buffer position, ownership). *)
let gen_codec_run =
  QCheck2.Gen.(
    let* n = int_range 2 4 in
    let* specs = list_repeat n gen_small_spec in
    let* twin = bool in
    let* plans = list_repeat n gen_disturbance_plan in
    let* blackouts = list_size (int_range 0 4) (int_range 0 40) in
    let* instances = int_range 0 3 in
    let* lazy_ = bool in
    let specs = Array.of_list (List.mapi (fun i s -> Sched.Appspec.with_id s i) specs) in
    if twin then specs.(1) <- Sched.Appspec.with_id specs.(0) 1;
    return (specs, twin, Array.of_list plans, blackouts, instances, lazy_))

let prop_packed_codec =
  QCheck2.Test.make ~name:"packed codec round-trips every reachable state"
    ~count:80 gen_codec_run
    (fun (specs, twin, plans, blackouts, instances, lazy_) ->
      let module S = Sched.Slot_state in
      let module P = S.Packed in
      let n = Array.length specs in
      (* instances = 0 is the unbounded verifier: no budget field *)
      let bounded = instances > 0 in
      let layout = if bounded then P.layout ~instances specs else P.layout specs in
      let w = P.work layout and w' = P.work layout in
      let budget = Array.make n instances in
      let bufpos st i =
        let rec go k = function
          | [] -> -1
          | j :: rest -> if j = i then k else go (k + 1) rest
        in
        go 0 st.S.buffer
      in
      let quiet st = Array.map (function S.Safe _ -> S.Safe { age = 0 } | p -> p) st.S.phases in
      let age st i = match S.phase st i with S.Safe { age } -> age | _ -> 0 in
      let seen = Hashtbl.create 64 in
      let reached = ref [] in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let check () =
        let e = Array.make (P.length layout) 0 in
        P.write layout w e;
        let st = P.decode layout e in
        let b = if bounded then Array.copy budget else Array.make n 0 in
        P.read layout e w';
        let e' = Array.make (P.length layout) 0 in
        P.write layout w' e';
        expect (e = e');
        Array.iteri (fun i v -> expect (P.budget layout e i = v)) b;
        expect (P.has_error layout e = S.has_error st);
        (match Hashtbl.find_opt seen e with
         | Some (st', b') -> expect (S.equal st st' && b = b')
         | None -> Hashtbl.add seen e (st, b));
        List.iter
          (fun (e2, st2, b2) ->
            let same = quiet st = quiet st2 && st.S.buffer = st2.S.buffer
                       && st.S.owner = st2.S.owner && b = b2 in
            expect (P.equal_quiet layout e e2 = same);
            if same then begin
              expect (P.hash_quiet layout e = P.hash_quiet layout e2);
              expect
                (P.older layout e e2
                = List.for_all (fun i -> age st i >= age st2 i) (List.init n Fun.id))
            end)
          !reached;
        reached := (e, st, b) :: !reached;
        if twin then begin
          let c =
            P.sort_apps layout [| [| 0; 1 |] |] e
              ~into:(Array.make (P.length layout) 0)
          in
          let d = P.decode layout c in
          let descr i = (S.phase st i, b.(i), bufpos st i, st.S.owner = Some i) in
          let lo, hi = if compare (descr 0) (descr 1) > 0 then (1, 0) else (0, 1) in
          expect ((c == e) = (lo = 0));
          List.iter
            (fun (slot, from) ->
              expect (S.phase d slot = S.phase st from);
              expect (P.budget layout c slot = b.(from));
              expect (bufpos d slot = bufpos st from))
            [ (0, lo); (1, hi) ];
          for i = 2 to n - 1 do
            expect (S.phase d i = S.phase st i)
          done
        end;
        st
      in
      let policy = if lazy_ then S.Lazy_preempt else S.Eager_preempt in
      let st = ref (check ()) in
      for k = 0 to 50 do
        let disturbed =
          List.filter
            (fun id ->
              ((not bounded) || budget.(id) > 0) && List.mem k plans.(id))
            (S.disturbable specs !st)
        in
        let allowed =
          List.filter (fun id -> (not bounded) || budget.(id) > 0) (S.disturbable specs !st)
        in
        expect
          (S.disturbable_mask specs w
          = List.fold_left (fun m id -> m lor (1 lsl id)) 0 allowed);
        List.iter (fun id -> budget.(id) <- budget.(id) - 1) disturbed;
        ignore
          (S.tick_into ~policy ~slot_available:(not (List.mem k blackouts)) specs w
             ~disturbed:(Array.of_list disturbed));
        st := check ()
      done;
      !ok)

let prop_buffer_sorted_by_slack =
  QCheck2.Test.make ~name:"buffer is EDF-sorted at every tick" ~count:60
    QCheck2.Gen.(quad gen_small_spec gen_small_spec gen_disturbance_plan gen_disturbance_plan)
    (fun (s1, s2, p1, p2) ->
      let specs = [| s1; Sched.Appspec.with_id s2 1 |] in
      let st = ref (Sched.Slot_state.initial specs) in
      let ok = ref true in
      for k = 0 to 50 do
        let disturbed =
          List.filter
            (fun id ->
              (match Sched.Slot_state.phase !st id with
               | Sched.Slot_state.Steady -> true
               | _ -> false)
              && List.mem k (if id = 0 then p1 else p2))
            [ 0; 1 ]
        in
        let st', _ = Sched.Slot_state.tick specs !st ~disturbed in
        let slack id =
          match Sched.Slot_state.phase st' id with
          | Sched.Slot_state.Waiting { wt } -> specs.(id).Sched.Appspec.t_w_max - wt
          | _ -> max_int
        in
        let rec sorted = function
          | a :: (b :: _ as rest) -> slack a <= slack b && sorted rest
          | [ _ ] | [] -> true
        in
        if not (sorted st'.Sched.Slot_state.buffer) then ok := false;
        st := st'
      done;
      !ok)

let prop_lazy_never_better_waits =
  (* lazy preemption can only lengthen waits: any wait observed under
     eager scheduling with a fixed disturbance plan is no longer than
     the lazy one for the same plan *)
  QCheck2.Test.make ~name:"lazy preemption never shortens a grant wait"
    ~count:40
    QCheck2.Gen.(quad gen_small_spec gen_small_spec gen_disturbance_plan gen_disturbance_plan)
    (fun (s1, s2, p1, p2) ->
      let specs = [| s1; Sched.Appspec.with_id s2 1 |] in
      let run policy =
        let st = ref (Sched.Slot_state.initial specs) in
        let waits = ref [] in
        for k = 0 to 50 do
          let disturbed =
            List.filter
              (fun id ->
                (match Sched.Slot_state.phase !st id with
                 | Sched.Slot_state.Steady -> true
                 | _ -> false)
                && List.mem k (if id = 0 then p1 else p2))
              [ 0; 1 ]
          in
          let st', out = Sched.Slot_state.tick ~policy specs !st ~disturbed in
          List.iter (fun g -> waits := g :: !waits) out.Sched.Slot_state.granted;
          st := st'
        done;
        List.rev !waits
      in
      let sum l = List.fold_left (fun a (_, w) -> a + w) 0 l in
      let eager = run Sched.Slot_state.Eager_preempt in
      let lazy_ = run Sched.Slot_state.Lazy_preempt in
      (* same grant count implies comparable schedules; compare total
         waiting *)
      List.length eager <> List.length lazy_ || sum eager <= sum lazy_)

let prop_error_is_absorbing =
  QCheck2.Test.make ~name:"error phases never disappear" ~count:40
    QCheck2.Gen.(quad gen_small_spec gen_small_spec gen_disturbance_plan gen_disturbance_plan)
    (fun (s1, s2, p1, p2) ->
      (* craft contention-heavy plans against tight specs *)
      let tighten (s : Sched.Appspec.t) =
        Sched.Appspec.make ~id:s.Sched.Appspec.id ~name:s.Sched.Appspec.name
          ~t_w_max:0
          ~t_dw_min:[| Array.fold_left Int.max 1 s.Sched.Appspec.t_dw_min |]
          ~t_dw_max:[| Array.fold_left Int.max 1 s.Sched.Appspec.t_dw_max |]
          ~r:s.Sched.Appspec.r
      in
      let specs = [| tighten s1; Sched.Appspec.with_id (tighten s2) 1 |] in
      let st = ref (Sched.Slot_state.initial specs) in
      let errored = ref false in
      let ok = ref true in
      for k = 0 to 40 do
        let disturbed =
          List.filter
            (fun id ->
              (match Sched.Slot_state.phase !st id with
               | Sched.Slot_state.Steady -> true
               | _ -> false)
              && List.mem k (if id = 0 then p1 else p2))
            [ 0; 1 ]
        in
        let st', _ = Sched.Slot_state.tick specs !st ~disturbed in
        if !errored && not (Sched.Slot_state.has_error st') then ok := false;
        if Sched.Slot_state.has_error st' then errored := true;
        st := st'
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The boxed transition function as it was before it became a wrapper
   over [tick_into], kept verbatim as the reference the wrapper is
   compared with.  Only the state record is local: [Slot_state.t] is
   private. *)
module Reference_tick = struct
  open Sched.Slot_state
  module Appspec = Sched.Appspec

  type t = { phases : phase array; buffer : int list; owner : int option }

  (* EDF insertion implementing the Sort automaton: the new request is
     placed before the first queued request with strictly larger slack.
     Slack of a waiting app = t_w_max - wt. *)
  let slack specs phases i =
    match phases.(i) with
    | Waiting { wt } -> specs.(i).Appspec.t_w_max - wt
    | Steady | Running _ | Safe _ | Error ->
      invalid_arg "Slot_state: non-waiting id in buffer"

  let rec insert_edf specs phases s_new id = function
    | [] -> [ id ]
    | q :: rest as all ->
      if slack specs phases q > s_new then id :: all
      else q :: insert_edf specs phases s_new id rest

  (* admit the disturbances of one tick, in arrival order *)
  let rec admit specs phases buffer = function
    | [] -> buffer
    | id :: rest ->
      if id < 0 || id >= Array.length specs then
        invalid_arg "Slot_state.tick: bad id";
      (match phases.(id) with
       | Steady -> phases.(id) <- Waiting { wt = 0 }
       | Waiting _ | Running _ | Safe _ | Error ->
         invalid_arg
           (Printf.sprintf
              "Slot_state.tick: disturbance for %s while not steady \
               (violates the sporadic model)"
              specs.(id).Appspec.name));
      admit specs phases
        (insert_edf specs phases (slack specs phases id) id buffer)
        rest

  let tick ?(policy = Eager_preempt) ?(slot_available = true) specs state ~disturbed =
    let n = Array.length specs in
    let phases = Array.copy state.phases in
    (* 1. aging, and 2. quiet period over: an application whose
       post-disturbance quiet time reaches [r] returns to [Steady] *)
    for i = 0 to n - 1 do
      match phases.(i) with
      | Steady | Error -> ()
      | Waiting { wt } -> phases.(i) <- Waiting { wt = wt + 1 }
      | Running r -> phases.(i) <- Running { r with ct = r.ct + 1 }
      | Safe { age } ->
        phases.(i) <-
          (if age + 1 >= specs.(i).Appspec.r then Steady else Safe { age = age + 1 })
    done;
    (* 3. admit new disturbances *)
    let buffer = ref (admit specs phases state.buffer disturbed) in
    (* 4. deadline misses: an application that has waited past T*_w can
       no longer be served within its table and is in error; it must be
       flagged (and dropped from the buffer) before any grant so the
       dwell lookup below never sees an out-of-range wait *)
    let new_errors = ref [] in
    for i = n - 1 downto 0 do
      match phases.(i) with
      | Waiting { wt } when wt > specs.(i).Appspec.t_w_max ->
        phases.(i) <- Error;
        new_errors := i :: !new_errors
      | Waiting _ | Steady | Running _ | Safe _ | Error -> ()
    done;
    (match !new_errors with
     | [] -> ()
     | _ :: _ ->
       buffer :=
         List.filter
           (fun id -> match phases.(id) with Waiting _ -> true | _ -> false)
           !buffer);
    (* 5. slot update; the buffer head is granted at the end when [grant]
       is set *)
    let released = ref [] and preempted = ref [] and denied = ref [] in
    let owner = ref state.owner and grant = ref false in
    if not slot_available then begin
      (* TT slot blackout: the occupant is evicted to ET mode (its dwell
         may be cut below T-_dw — the guarantee monitor's business, not
         ours) and nobody is granted; waiting applications keep aging
         towards Error *)
      match !owner with
      | None -> ()
      | Some id ->
        (match phases.(id) with
         | Running { ct; wt_granted; _ } ->
           phases.(id) <- Safe { age = wt_granted + ct };
           owner := None;
           denied := [ id ]
         | Steady | Waiting _ | Safe _ | Error ->
           invalid_arg "Slot_state: owner not running")
    end
    else
    (match !owner with
     | None -> grant := true
     | Some id ->
       (match phases.(id) with
        | Running { ct; dt_max; dt_min; wt_granted } ->
          (* the quiet timer of ET_SAFE runs from the sample at which the
             scheduler first saw the disturbance (the paper's time[id]),
             which is wt_granted + ct samples ago *)
          if ct >= dt_max then begin
            (* voluntary release at the maximum useful dwell *)
            phases.(id) <- Safe { age = wt_granted + ct };
            owner := None;
            released := [ id ];
            grant := true
          end
          else if
            ct >= dt_min
            && (match !buffer with [] -> false | _ :: _ -> true)
            && (match policy with
                | Eager_preempt -> true
                | Lazy_preempt ->
                  (* postpone until some waiter is on its last chance *)
                  List.exists
                    (fun i ->
                      match phases.(i) with
                      | Waiting { wt } -> wt >= specs.(i).Appspec.t_w_max
                      | Steady | Running _ | Safe _ | Error -> false)
                    !buffer)
          then begin
            (* preemption once the minimum dwell is honoured *)
            phases.(id) <- Safe { age = wt_granted + ct };
            owner := None;
            preempted := [ id ];
            grant := true
          end
        | Steady | Waiting _ | Safe _ | Error ->
          invalid_arg "Slot_state: owner not running"));
    let granted = ref [] in
    (if !grant then
       match !buffer with
       | [] -> ()
       | id :: rest ->
         (match phases.(id) with
          | Waiting { wt } ->
            let dt_min = specs.(id).Appspec.t_dw_min.(wt)
            and dt_max = specs.(id).Appspec.t_dw_max.(wt) in
            phases.(id) <- Running { wt_granted = wt; ct = 0; dt_min; dt_max };
            buffer := rest;
            owner := Some id;
            granted := [ (id, wt) ]
          | Steady | Running _ | Safe _ | Error ->
            invalid_arg "Slot_state: buffer head not waiting"));
    ( { phases; buffer = !buffer; owner = !owner },
      {
        granted = !granted;
        released = !released;
        preempted = !preempted;
        new_errors = !new_errors;
        denied = !denied;
      } )
end

(* 1-5-application groups, some applications identical-timing twins of
   an earlier one, ticked along a random walk: at every step a random
   subset of the disturbable applications in a random arrival order,
   and now and then a slot blackout.  The wrapper and the reference
   start from the same state, and each step continues from the
   reference's result (checked equal to the wrapper's, field by field,
   before the next step is taken). *)
let gen_walk =
  QCheck2.Gen.(
    let* n = int_range 1 5 in
    let* specs = list_repeat n gen_small_spec in
    let* twins = list_repeat n (int_range 0 3) in
    let* lazy_ = bool in
    let* steps =
      list_size (int_range 10 60)
        (triple (int_range 0 31) (int_range 0 1_000_000) (int_range 0 7))
    in
    let specs = Array.of_list specs in
    List.iteri
      (fun i t -> if i > 0 && t = 0 then specs.(i) <- specs.(i - 1))
      twins;
    let specs = Array.mapi (fun i s -> Sched.Appspec.with_id s i) specs in
    return (specs, lazy_, steps))

let prop_tick_matches_reference =
  QCheck2.Test.make ~name:"tick matches the reference transition" ~count:300
    gen_walk
    (fun (specs, lazy_, steps) ->
      let module S = Sched.Slot_state in
      let module R = Reference_tick in
      let policy = if lazy_ then S.Lazy_preempt else S.Eager_preempt in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let st = ref (S.initial specs) in
      let rst =
        ref { R.phases = !st.S.phases; buffer = !st.S.buffer; owner = !st.S.owner }
      in
      List.iter
        (fun (pick, seed, blackout) ->
          let avail = S.disturbable specs !st in
          let chosen = List.filteri (fun k _ -> pick land (1 lsl k) <> 0) avail in
          let rng = Random.State.make [| seed |] in
          let disturbed =
            List.map snd
              (List.sort compare
                 (List.map (fun id -> (Random.State.bits rng, id)) chosen))
          in
          let slot_available = blackout <> 0 in
          let st', out = S.tick ~policy ~slot_available specs !st ~disturbed in
          let rst', rout = R.tick ~policy ~slot_available specs !rst ~disturbed in
          expect (st'.S.phases = rst'.R.phases);
          expect (st'.S.buffer = rst'.R.buffer);
          expect (st'.S.owner = rst'.R.owner);
          expect (out.S.granted = rout.S.granted);
          expect (out.S.released = rout.S.released);
          expect (out.S.preempted = rout.S.preempted);
          expect (out.S.new_errors = rout.S.new_errors);
          expect (out.S.denied = rout.S.denied);
          st := st';
          rst := rst')
        steps;
      !ok)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_tick_matches_reference;
      prop_min_dwell_respected;
      prop_single_owner;
      prop_packed_codec;
      prop_buffer_sorted_by_slack;
      prop_lazy_never_better_waits;
      prop_error_is_absorbing;
    ]

let () =
  Alcotest.run "sched"
    [
      ( "appspec",
        [
          Alcotest.test_case "construction" `Quick test_appspec_ok;
          Alcotest.test_case "validation" `Quick test_appspec_validation;
        ] );
      ( "slot_state",
        [
          Alcotest.test_case "single app lifecycle" `Quick test_single_app_lifecycle;
          Alcotest.test_case "deadline miss" `Quick test_error_when_never_granted;
          Alcotest.test_case "preemption" `Quick test_preemption_after_min_dwell;
          Alcotest.test_case "EDF order" `Quick test_edf_orders_by_slack;
          Alcotest.test_case "tie break" `Quick test_tie_break_by_arrival_order;
          Alcotest.test_case "sporadic model enforced" `Quick test_disturb_non_steady_rejected;
          Alcotest.test_case "force_steady" `Quick test_force_steady;
          Alcotest.test_case "lazy preemption" `Quick test_lazy_preemption_postponed;
        ] );
      ( "arbiter",
        [
          Alcotest.test_case "owner trace" `Quick test_arbiter_owner_trace;
          Alcotest.test_case "log order" `Quick test_arbiter_log_order;
          Alcotest.test_case "past disturbance" `Quick test_arbiter_past_disturbance_rejected;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "single app" `Quick test_baseline_single_always_schedulable;
          Alcotest.test_case "blocking" `Quick test_baseline_blocking;
          Alcotest.test_case "interference" `Quick test_baseline_interference;
          Alcotest.test_case "first fit" `Quick test_baseline_first_fit;
          Alcotest.test_case "validation" `Quick test_baseline_validation;
        ] );
      ("properties", props);
    ]
