(* The unified search engine (lib/search), tested at two levels.

   Engine unit tests drive Search.Make over small synthetic graphs and
   check the things the production clients rely on: both frontier
   orders, both state-budget check points, the deadline budget, the
   `Generate/`Insert target regimes, antichain coverage pruning, and
   parent-table trace reconstruction.

   Differential pins re-run the engine's production instantiations —
   the discrete adversary (Core.Dverify, both its depth-first engine
   and its breadth-first reference), zone-graph reachability
   (Core.Ta_model / Ta.Reach) and the slot mapper built on them — and
   compare verdicts, state/transition counts, dwell (max-wait) tables,
   counterexample text and witness traces against numbers pinned on
   the paper's case study.  The reference's counts are those of the
   original plain breadth-first explorer; the engine must reproduce
   its verdicts and tables in far fewer states.  The same pins are
   asserted for whole searches run as tasks of 1/2/4-domain pools, the
   way the serve layer shards a request's groups. *)

let pr_arr a =
  "[|" ^ String.concat ";" (Array.to_list (Array.map string_of_int a)) ^ "|]"

(* ------------------------------------------------------------------ *)
(* Engine unit tests over synthetic graphs *)

(* integer states, string labels, successors given by a closure set per
   test via this ref (the module is instantiated once) *)
let graph : (int -> (string * int) list) ref = ref (fun _ -> [])

module Ints = Search.Make (struct
  type state = int
  type label = string

  module Key = struct
    type t = int

    let equal = Int.equal
    let hash = Hashtbl.hash
  end

  let key s = s
  let successors s = !graph s
  let is_target _ s = s >= 1_000_000
end)

let insert_order ?order graph_fn initial =
  graph := graph_fn;
  let seen = ref [] in
  let r = Ints.run ?order ~on_insert:(fun s -> seen := s :: !seen) initial in
  (r, List.rev !seen)

(* a three-level tree whose insertion order separates the two
   frontier disciplines: 0 -> 12,21,33, each with one child recording
   when its parent was popped *)
let tree = function
  | 0 -> [ ("a", 12); ("b", 21); ("c", 33) ]
  | 12 -> [ ("d", 112) ]
  | 21 -> [ ("e", 121) ]
  | 33 -> [ ("f", 133) ]
  | _ -> []

let test_order_bfs () =
  let r, order = insert_order tree 0 in
  Alcotest.(check (list int)) "FIFO insert order" [ 0; 12; 21; 33; 112; 121; 133 ] order;
  Alcotest.(check int) "states" 7 r.Ints.stats.Search.states;
  Alcotest.(check int) "transitions" 6 r.Ints.stats.Search.transitions;
  Alcotest.(check bool) "completed" true (r.Ints.outcome = Ints.Completed)

let test_order_dfs () =
  let _, order = insert_order ~order:Search.Dfs tree 0 in
  (* the stack pops the most recently pushed sibling first *)
  Alcotest.(check (list int)) "LIFO insert order" [ 0; 12; 21; 33; 133; 121; 112 ] order

let chain n = if n < 1_000 then [ ("s", n + 1) ] else []

let test_budget_insert () =
  graph := chain;
  let r = Ints.run ~max_states:3 ~max_states_check:`Insert 0 in
  (match r.Ints.outcome with
   | Ints.Exhausted (Search.Max_states 3) -> ()
   | _ -> Alcotest.fail "expected Exhausted (Max_states 3)");
  Alcotest.(check int) "stops right at the cap" 3 r.Ints.stats.Search.states

let test_budget_pop () =
  graph := chain;
  let r = Ints.run ~max_states:2 ~max_states_check:`Pop 0 in
  (match r.Ints.outcome with
   | Ints.Exhausted (Search.Max_states 2) -> ()
   | _ -> Alcotest.fail "expected Exhausted (Max_states 2)");
  (* the cap is noticed before the pop that would exceed it, so the
     last inserted state is never expanded *)
  Alcotest.(check int) "states" 2 r.Ints.stats.Search.states;
  Alcotest.(check int) "transitions" 1 r.Ints.stats.Search.transitions

let test_budget_deadline () =
  graph := chain;
  (* mask 0 checks the clock on every pop, so even a fast machine
     cannot finish the chain before noticing the spent deadline *)
  let r = Ints.run ~deadline:1e-9 ~deadline_mask:0 0 in
  match r.Ints.outcome with
  | Ints.Exhausted (Search.Deadline d) ->
    Alcotest.(check (float 0.)) "reason carries the budget" 1e-9 d
  | _ -> Alcotest.fail "expected Exhausted (Deadline _)"

let test_target_regimes () =
  let g = function
    | 0 -> [ ("s", 1) ]
    | 1 -> [ ("t", 1_000_001) ]
    | _ -> []
  in
  graph := g;
  let ri = Ints.run ~target_check:`Insert 0 in
  let rg = Ints.run ~target_check:`Generate 0 in
  (match (ri.Ints.outcome, rg.Ints.outcome) with
   | Ints.Found a, Ints.Found b ->
     Alcotest.(check int) "same witness" a b
   | _ -> Alcotest.fail "both regimes must find the target");
  (* `Insert counts the stored target, `Generate keeps it out of the
     visited set (the Dverify error-state regime) *)
  Alcotest.(check int) "insert counts it" 3 ri.Ints.stats.Search.states;
  Alcotest.(check int) "generate does not" 2 rg.Ints.stats.Search.states

let test_trace () =
  let g = function
    | 0 -> [ ("z", 5); ("a", 1) ]
    | 1 -> [ ("b", 2) ]
    | 2 -> [ ("c", 1_000_002) ]
    | _ -> []
  in
  graph := g;
  let r = Ints.run 0 in
  (match r.Ints.outcome with
   | Ints.Found s -> Alcotest.(check int) "witness" 1_000_002 s
   | _ -> Alcotest.fail "target not found");
  Alcotest.(check (list (pair string int)))
    "chronological labelled path from the initial state"
    [ ("a", 1); ("b", 2); ("c", 1_000_002) ]
    r.Ints.trace;
  (* well-formedness: every step is a real successor of its
     predecessor *)
  let rec ok prev = function
    | [] -> true
    | (l, s) :: rest ->
      List.exists (fun (l', s') -> l = l' && s = s') (!graph prev) && ok s rest
  in
  Alcotest.(check bool) "each step is a successor edge" true (ok 0 r.Ints.trace)

(* pair states so coverage can split them into a group key and an
   ordered abstract element *)
let pair_graph : (int * int -> (string * (int * int)) list) ref =
  ref (fun _ -> [])

module Pairs = Search.Make (struct
  type state = int * int
  type label = string

  module Key = struct
    type t = int * int

    let equal = ( = )
    let hash = Hashtbl.hash
  end

  let key s = s
  let successors s = !pair_graph s
  let is_target _ _ = false
end)

let test_coverage () =
  (pair_graph :=
     function
     | 0, 5 -> [ ("low", (0, 3)); ("high", (0, 7)) ]
     | 0, 3 -> [ ("boom", (9, 9)) ]
     | _ -> []);
  let coverage =
    Pairs.Coverage
      {
        split = (fun (g, v) -> (g, v));
        ck_equal = Int.equal;
        ck_hash = Hashtbl.hash;
        covers = (fun stored cand -> stored >= cand);
      }
  in
  let r = Pairs.run ~exact:false ~coverage (0, 5) in
  (* (0,3) is covered by the stored (0,5) and pruned, so its successor
     (9,9) is never generated; (0,7) covers (0,5) and replaces it *)
  Alcotest.(check bool) "completed" true (r.Pairs.outcome = Pairs.Completed);
  Alcotest.(check int) "states" 2 r.Pairs.stats.Search.states;
  Alcotest.(check int) "transitions" 2 r.Pairs.stats.Search.transitions;
  Alcotest.(check int) "cover hits" 1 r.Pairs.stats.Search.cover_hits

(* ------------------------------------------------------------------ *)
(* Differential pins against the pre-refactor explorers *)

let app_of name =
  let a = Casestudy.find name in
  Core.App.make ~name:a.Casestudy.name ~plant:a.Casestudy.plant
    ~gains:a.Casestudy.gains ~r:a.Casestudy.r ~j_star:a.Casestudy.j_star ()

let by_name n = Core.Mapping.specs_of_group (List.map app_of n)
let s2 = lazy (by_name [ "C6"; "C2" ])
let c1c5 = lazy (by_name [ "C1"; "C5" ])
let s1 = lazy (by_name [ "C1"; "C5"; "C4"; "C3" ])

let unsafe_pair =
  lazy
    (let spec ~name ~id =
       Sched.Appspec.make ~id ~name ~t_w_max:1 ~t_dw_min:(Array.make 2 3)
         ~t_dw_max:(Array.make 2 4) ~r:20
     in
     [| spec ~name:"A" ~id:0; spec ~name:"B" ~id:1 |])

let check_result label (r : Core.Dverify.result) ~verdict ~states
    ~transitions ~max_wait =
  let v =
    match r.Core.Dverify.verdict with
    | Core.Dverify.Safe -> "Safe"
    | Core.Dverify.Unsafe _ -> "Unsafe"
    | Core.Dverify.Undetermined _ -> "Undet"
  in
  Alcotest.(check string) (label ^ " verdict") verdict v;
  Alcotest.(check int) (label ^ " states") states
    r.Core.Dverify.stats.Core.Dverify.states;
  Alcotest.(check int) (label ^ " transitions") transitions
    r.Core.Dverify.stats.Core.Dverify.transitions;
  Alcotest.(check string) (label ^ " max_wait") max_wait
    (pr_arr r.Core.Dverify.stats.Core.Dverify.max_wait)


(* run [thunks] as one submission on a fresh pool of [jobs] domains —
   the way the serve layer shards a request's groups — and return the
   results in list order *)
let sharded ~jobs thunks =
  let pool = Par.Pool.create ~jobs in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () -> Par.Pool.await_list pool (Par.Pool.submit_list pool thunks))

let test_pin_dverify () =
  let s2 = Lazy.force s2 and c1c5 = Lazy.force c1c5 in
  check_result "S2 engine" (Core.Dverify.verify s2) ~verdict:"Safe"
    ~states:2204 ~transitions:2434 ~max_wait:"[|6;7|]";
  check_result "S2 reference" (Core.Dverify.reference s2) ~verdict:"Safe"
    ~states:10201 ~transitions:10609 ~max_wait:"[|6;7|]";
  check_result "C1C5 engine" (Core.Dverify.verify c1c5) ~verdict:"Safe"
    ~states:359 ~transitions:434 ~max_wait:"[|3;3|]";
  check_result "C1C5 reference" (Core.Dverify.reference c1c5) ~verdict:"Safe"
    ~states:676 ~transitions:784 ~max_wait:"[|3;3|]"

let test_pin_dverify_s1 () =
  let s1 = Lazy.force s1 in
  check_result "S1 engine" (Core.Dverify.verify s1) ~verdict:"Safe"
    ~states:53643 ~transitions:75222 ~max_wait:"[|11;11;9;13|]";
  check_result "S1 reference" (Core.Dverify.reference s1) ~verdict:"Safe"
    ~states:1431246 ~transitions:1812394 ~max_wait:"[|11;11;9;13|]"

let expected_ce_text =
  "t=0   A:wait(0) B:run(ct=0,w=0)  <- disturb B,A\n\
   t=1   A:wait(1) B:run(ct=1,w=0)\n\
   t=2   A:ERROR B:run(ct=2,w=0)\n\
   miss: A"

let ce_text g (r : Core.Dverify.result) =
  match r.Core.Dverify.verdict with
  | Core.Dverify.Unsafe ce ->
    String.trim (Format.asprintf "%a" (Core.Dverify.pp_counterexample g) ce)
  | Core.Dverify.Safe | Core.Dverify.Undetermined _ ->
    Alcotest.fail "AB must be unsafe"

let test_pin_counterexample () =
  let g = Lazy.force unsafe_pair in
  let r = Core.Dverify.reference g in
  check_result "AB reference" r ~verdict:"Unsafe" ~states:17 ~transitions:18
    ~max_wait:"[|0;0|]";
  (match r.Core.Dverify.verdict with
   | Core.Dverify.Unsafe ce ->
     Alcotest.(check (list int)) "failing ids" [ 0 ] ce.Core.Dverify.failing;
     Alcotest.(check (list (list int)))
       "disturbance schedule"
       [ [ 1; 0 ]; []; [] ]
       (List.map fst ce.Core.Dverify.steps)
   | _ -> Alcotest.fail "AB must be unsafe");
  Alcotest.(check string) "rendered counterexample" expected_ce_text
    (ce_text g r);
  let e = Core.Dverify.verify g in
  check_result "AB engine" e ~verdict:"Unsafe" ~states:4 ~transitions:7
    ~max_wait:"[|0;0|]";
  (* depth-first in the quotient, the engine finds the same witness *)
  Alcotest.(check string) "engine counterexample" expected_ce_text
    (ce_text g e)

(* the zone engine's verdict and statistics: through Ta_model, or
   through Ta.Reach with zone inclusion on *)
let zones ~inclusion specs =
  if inclusion then
    let r =
      Ta.Reach.run ~inclusion (Core.Ta_model.build specs)
        (Core.Ta_model.error_target specs)
    in
    ( (match r.Ta.Reach.outcome with
       | Ta.Reach.Hit _ -> "Unsafe"
       | Ta.Reach.Unreachable -> "Safe"
       | Ta.Reach.Exhausted _ -> "Undet"),
      r.Ta.Reach.stats )
  else
    let r = Core.Ta_model.verify specs in
    ( (match r.Core.Ta_model.outcome with
       | `Safe -> "Safe"
       | `Unsafe -> "Unsafe"
       | `Undetermined _ -> "Undet"),
      r.Core.Ta_model.stats )

let check_ta label ?(inclusion = false) specs ~verdict ~states ~transitions
    ~peak ~dedup ~incl ~extrap =
  let v, s = zones ~inclusion specs in
  Alcotest.(check string) (label ^ " verdict") verdict v;
  Alcotest.(check int) (label ^ " states") states s.Ta.Reach.states;
  Alcotest.(check int) (label ^ " transitions") transitions
    s.Ta.Reach.transitions;
  Alcotest.(check int) (label ^ " waiting_peak") peak s.Ta.Reach.waiting_peak;
  Alcotest.(check int) (label ^ " dedup_hits") dedup s.Ta.Reach.dedup_hits;
  Alcotest.(check int) (label ^ " inclusion_pruned") incl
    s.Ta.Reach.inclusion_pruned;
  Alcotest.(check int) (label ^ " extrapolations") extrap
    s.Ta.Reach.extrapolations

let test_pin_reach_s2 () =
  check_ta "TA S2" (Lazy.force s2) ~verdict:"Safe" ~states:66006
    ~transitions:89261 ~peak:626 ~dedup:23256 ~incl:0 ~extrap:89261;
  check_ta "TA S2 inclusion" ~inclusion:true (Lazy.force s2) ~verdict:"Safe"
    ~states:65396 ~transitions:88433 ~peak:436 ~dedup:22392 ~incl:646
    ~extrap:88433

let test_pin_reach_c1c5 () =
  check_ta "TA C1C5" (Lazy.force c1c5) ~verdict:"Safe" ~states:5389
    ~transitions:7517 ~peak:172 ~dedup:2129 ~incl:0 ~extrap:7517;
  check_ta "TA C1C5 inclusion" ~inclusion:true (Lazy.force c1c5)
    ~verdict:"Safe" ~states:5230 ~transitions:7300 ~peak:125 ~dedup:1901
    ~incl:170 ~extrap:7300

let expected_ab_trace =
  [
    "A: Steady -> Dist_init";
    "A!reqTT Scheduler?reqTT";
    "B: Steady -> Dist_init";
    "B!reqTT Scheduler?reqTT";
    "Scheduler: Idle -> TickSlot";
    "Scheduler!getTT[A] A?getTT[A]";
    "Scheduler: Idle -> TickSlot";
    "Scheduler: TickSlot -> Idle";
    "B: ET_Wait -> Error";
  ]

let test_pin_reach_trace () =
  let g = Lazy.force unsafe_pair in
  check_ta "TA AB" g ~verdict:"Unsafe" ~states:84 ~transitions:87 ~peak:19
    ~dedup:4 ~incl:0 ~extrap:88;
  let net = Core.Ta_model.build g in
  let res = Ta.Reach.run net (Core.Ta_model.error_target g) in
  (match res.Ta.Reach.outcome with
   | Ta.Reach.Hit _ -> ()
   | _ -> Alcotest.fail "AB zone model must hit Error");
  Alcotest.(check (list string))
    "witness trace labels" expected_ab_trace
    (List.map (fun s -> s.Ta.Reach.automaton) res.Ta.Reach.trace)

(* whole searches as pool tasks, two at once: same verdict, same
   counts, same dwell table at every pool size *)
let test_jobs_determinism () =
  let s2 = Lazy.force s2 and ab = Lazy.force unsafe_pair in
  List.iter
    (fun jobs ->
      match
        sharded ~jobs
          [ (fun () -> Core.Dverify.verify s2); (fun () -> Core.Dverify.verify ab) ]
      with
      | [ rs2; rab ] ->
        check_result
          (Printf.sprintf "S2 jobs=%d" jobs)
          rs2 ~verdict:"Safe" ~states:2204 ~transitions:2434
          ~max_wait:"[|6;7|]";
        check_result
          (Printf.sprintf "AB jobs=%d" jobs)
          rab ~verdict:"Unsafe" ~states:4 ~transitions:7 ~max_wait:"[|0;0|]"
      | _ -> assert false)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Symmetry quotient pins.  The engine always quotients by
   permutations of identical-timing applications; the quotient must be
   invisible in the verdict and, on Safe, in the max-wait table (orbit
   fix-up), and inert on groups with no two identical applications. *)

(* three interchangeable applications, analytically safe but far from
   trivial for the engine: min dwell 3, so two competitors hold the
   slot for at most 6 < T*_w = 8 samples *)
let trio =
  lazy
    (let spec ~name ~id =
       Sched.Appspec.make ~id ~name ~t_w_max:8 ~t_dw_min:(Array.make 9 3)
         ~t_dw_max:(Array.make 9 4) ~r:13
     in
     [| spec ~name:"A" ~id:0; spec ~name:"B" ~id:1; spec ~name:"C" ~id:2 |])

let dv_fingerprint (r : Core.Dverify.result) =
  let v =
    match r.Core.Dverify.verdict with
    | Core.Dverify.Safe -> "Safe"
    | Core.Dverify.Unsafe _ -> "Unsafe"
    | Core.Dverify.Undetermined _ -> "Undet"
  in
  Printf.sprintf "%s states=%d transitions=%d max_wait=%s" v
    r.Core.Dverify.stats.Core.Dverify.states
    r.Core.Dverify.stats.Core.Dverify.transitions
    (pr_arr r.Core.Dverify.stats.Core.Dverify.max_wait)

let test_symmetry_safe_agrees () =
  let g = Lazy.force trio in
  let reference = Core.Dverify.reference g in
  let quotient = Core.Dverify.verify g in
  (match (reference.Core.Dverify.verdict, quotient.Core.Dverify.verdict) with
   | Core.Dverify.Safe, Core.Dverify.Safe -> ()
   | _ -> Alcotest.fail "trio must be Safe in the engine and the reference");
  Alcotest.(check string)
    "orbit-max fix-up reproduces the exact max-wait table"
    (pr_arr reference.Core.Dverify.stats.Core.Dverify.max_wait)
    (pr_arr quotient.Core.Dverify.stats.Core.Dverify.max_wait);
  Alcotest.(check bool)
    "quotient explores strictly fewer states" true
    (quotient.Core.Dverify.stats.Core.Dverify.states
     < reference.Core.Dverify.stats.Core.Dverify.states)

let test_symmetry_unsafe_byte_identical () =
  (* the two AB applications are identical, so the quotient kicks in;
     its counterexample is real and the same bytes whichever pool
     domain runs it *)
  let g = Lazy.force unsafe_pair in
  List.iter
    (fun jobs ->
      List.iter
        (fun (r : Core.Dverify.result) ->
          check_result
            (Printf.sprintf "AB quotient jobs=%d" jobs)
            r ~verdict:"Unsafe" ~states:4 ~transitions:7 ~max_wait:"[|0;0|]";
          Alcotest.(check string) "rendered counterexample" expected_ce_text
            (ce_text g r))
        (sharded ~jobs (List.init 2 (fun _ () -> Core.Dverify.verify g))))
    [ 1; 2; 4 ]

(* with tracing on, count the states [f] folds onto another orbit
   representative *)
let collapsed f =
  Obs.Trace_ctx.enable ();
  Obs.Metric.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metric.reset ();
      Obs.Trace_ctx.disable ())
    (fun () ->
      ignore (f ());
      Obs.Metric.value (Obs.Metric.counter "search.orbit_collapsed"))

let test_symmetry_heterogeneous_untouched () =
  (* no two S2 applications share parameters: every orbit is a
     singleton and the quotient never relabels a state *)
  let s2 = Lazy.force s2 in
  Alcotest.(check int) "no state collapsed" 0
    (collapsed (fun () -> Core.Dverify.verify s2));
  check_result "S2 engine" (Core.Dverify.verify s2) ~verdict:"Safe"
    ~states:2204 ~transitions:2434 ~max_wait:"[|6;7|]"

let test_symmetry_jobs_determinism () =
  let g = Lazy.force trio in
  let reference = dv_fingerprint (Core.Dverify.verify g) in
  List.iter
    (fun jobs ->
      List.iter
        (fun r ->
          Alcotest.(check string)
            (Printf.sprintf "quotient run identical at jobs %d" jobs)
            reference (dv_fingerprint r))
        (sharded ~jobs (List.init 2 (fun _ () -> Core.Dverify.verify g))))
    [ 1; 2; 4 ]

let test_symmetry_orbit_metric () =
  Alcotest.(check bool)
    "orbit_collapsed > 0 on a 3-identical-app fleet" true
    (collapsed (fun () -> Core.Dverify.verify (Lazy.force trio)) > 0)

let test_pin_mapping () =
  let apps = List.map app_of [ "C1"; "C2"; "C3"; "C4"; "C5"; "C6" ] in
  let o = Core.Mapping.first_fit ~cache:(Core.Mapping.create_cache ()) apps in
  Alcotest.(check int) "verifications" 6 o.Core.Mapping.verifications;
  Alcotest.(check (list (list string)))
    "packing"
    [ [ "C1"; "C5"; "C4"; "C3" ]; [ "C6"; "C2" ] ]
    (List.map
       (fun s -> List.map (fun a -> a.Core.App.name) s.Core.Mapping.apps)
       o.Core.Mapping.slots)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "search"
    [
      ( "engine",
        [
          Alcotest.test_case "BFS order" `Quick test_order_bfs;
          Alcotest.test_case "DFS order" `Quick test_order_dfs;
          Alcotest.test_case "max_states at insert" `Quick test_budget_insert;
          Alcotest.test_case "max_states at pop" `Quick test_budget_pop;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "target regimes" `Quick test_target_regimes;
          Alcotest.test_case "trace reconstruction" `Quick test_trace;
          Alcotest.test_case "coverage pruning" `Quick test_coverage;
        ] );
      ( "differential",
        [
          Alcotest.test_case "dverify pins (S2, C1C5)" `Quick test_pin_dverify;
          Alcotest.test_case "dverify pin (S1, 1.4M states)" `Slow
            test_pin_dverify_s1;
          Alcotest.test_case "counterexample pin" `Quick test_pin_counterexample;
          Alcotest.test_case "reach pins (S2)" `Quick test_pin_reach_s2;
          Alcotest.test_case "reach pins (C1C5)" `Quick test_pin_reach_c1c5;
          Alcotest.test_case "reach trace pin (AB)" `Quick test_pin_reach_trace;
          Alcotest.test_case "jobs 1/2/4 determinism" `Quick
            test_jobs_determinism;
          Alcotest.test_case "mapping packing pin" `Quick test_pin_mapping;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "safe quotient agrees" `Quick
            test_symmetry_safe_agrees;
          Alcotest.test_case "unsafe byte-identical at jobs 1/2/4" `Quick
            test_symmetry_unsafe_byte_identical;
          Alcotest.test_case "heterogeneous untouched" `Quick
            test_symmetry_heterogeneous_untouched;
          Alcotest.test_case "safe quotient jobs 1/2/4" `Quick
            test_symmetry_jobs_determinism;
          Alcotest.test_case "orbit_collapsed metric" `Quick
            test_symmetry_orbit_metric;
        ] );
    ]
