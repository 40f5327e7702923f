(* Tests for the domain pool (lib/par) and for the guarantee the serve
   layer's group shards rest on: a verification, mapping, dwell table
   or campaign is a pure function of its inputs, so running it as a
   task of a 1-, 2- or 4-domain pool, next to another copy of itself,
   gives byte-identical results — including under fault plans and
   budget (Undetermined) outcomes.  Also the regression test for the
   Ta.Reach stats counters, which used to live in process-global
   mutable state, and the same isolation check for Core.Dverify. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* [f ()] sequentially, then as two concurrent tasks of a fresh pool at
   each size — the way serve shards a request's groups — every result
   in that order *)
let sharded_runs sizes f =
  f ()
  :: List.concat_map
       (fun jobs ->
         let pool = Par.Pool.create ~jobs in
         Fun.protect
           ~finally:(fun () -> Par.Pool.shutdown pool)
           (fun () -> Par.Pool.await_list pool (Par.Pool.submit_list pool [ f; f ])))
       sizes

let all_equal = function
  | [] | [ _ ] -> true
  | x :: rest -> List.for_all (( = ) x) rest

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_empty_and_singleton () =
  let pool = Par.Pool.create ~jobs:4 in
  check_bool "empty list" true
    (Par.Pool.await_list pool (Par.Pool.submit_list pool []) = []);
  check_bool "singleton" true
    (Par.Pool.await_list pool (Par.Pool.submit_list pool [ (fun () -> 8) ])
    = [ 8 ]);
  Par.Pool.shutdown pool

let test_pool_exception_smallest_index () =
  List.iter
    (fun jobs ->
      let pool = Par.Pool.create ~jobs in
      let raised =
        try
          ignore
            (Par.Pool.await_list pool
               (Par.Pool.submit_list pool
                  (List.init 100 (fun i () ->
                       if i >= 53 then failwith (string_of_int i) else i))));
          "no exception"
        with Failure m -> m
      in
      Par.Pool.shutdown pool;
      check_string
        (Printf.sprintf "first failing task in list order at jobs=%d" jobs)
        "53" raised)
    [ 1; 2; 4 ]

let test_pool_nested_map () =
  (* a task running on the pool may submit to the same pool and await
     there: helping makes this deadlock-free *)
  let pool = Par.Pool.create ~jobs:2 in
  let out =
    Par.Pool.await_list pool
      (Par.Pool.submit_list pool
         (List.init 4 (fun row () ->
              Par.Pool.await_list pool
                (Par.Pool.submit_list pool
                   (List.init 3 (fun col () -> (row * 10) + col))))))
  in
  Par.Pool.shutdown pool;
  check_bool "nested submission on the same pool" true
    (out
    = List.init 4 (fun row -> List.init 3 (fun col -> (row * 10) + col)))

let test_pool_submit_await () =
  let pool = Par.Pool.create ~jobs:2 in
  (match Par.Pool.submit_list pool [ (fun () -> 6 * 7) ] with
   | [ fut ] -> check_int "submit/await" 42 (Par.Pool.await pool fut)
   | _ -> Alcotest.fail "one thunk, one future");
  Par.Pool.shutdown pool

let test_pool_jobs_one_is_caller_only () =
  let pool = Par.Pool.create ~jobs:1 in
  let here = Domain.self () in
  let domains =
    Par.Pool.await_list pool
      (Par.Pool.submit_list pool (List.init 4 (fun _ () -> Domain.self ())))
  in
  Par.Pool.shutdown pool;
  check_bool "jobs=1 runs everything on the caller" true
    (List.for_all (( = ) here) domains)

let test_pool_rejects_bad_jobs () =
  check_bool "jobs=0 rejected" true
    (try
       ignore (Par.Pool.create ~jobs:0);
       false
     with Invalid_argument _ -> true)

let test_pool_shutdown_idempotent () =
  let pool = Par.Pool.create ~jobs:3 in
  ignore
    (Par.Pool.await_list pool
       (Par.Pool.submit_list pool (List.init 3 (fun i () -> i + 1))));
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool

let test_pool_submit_list () =
  List.iter
    (fun jobs ->
      let pool = Par.Pool.create ~jobs in
      let futs =
        Par.Pool.submit_list pool (List.init 9 (fun i () -> i * i))
      in
      check_bool
        (Printf.sprintf "submit_list/await_list order at jobs=%d" jobs)
        true
        (Par.Pool.await_list pool futs = List.init 9 (fun i -> i * i));
      (* a sharded thunk may itself fan out on the same pool *)
      let nested =
        Par.Pool.submit_list pool
          (List.init 4 (fun row () ->
               Par.Pool.await_list pool
                 (Par.Pool.submit_list pool
                    (List.init 3 (fun col () -> (row * 10) + col)))))
      in
      check_bool
        (Printf.sprintf "nested submission inside submit_list at jobs=%d" jobs)
        true
        (Par.Pool.await_list pool nested
        = List.init 4 (fun row -> List.init 3 (fun col -> (row * 10) + col)));
      Par.Pool.shutdown pool)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Vcache *)

let test_vcache_memoises () =
  let c = Par.Vcache.create () in
  let computed = ref 0 in
  let get () =
    Par.Vcache.find_or_add c "k"
      (fun () ->
        incr computed;
        !computed)
  in
  check_int "first call computes" 1 (get ());
  check_int "second call is a hit" 1 (get ());
  check_int "compute ran once" 1 !computed;
  check_int "hits" 1 (Par.Vcache.hits c);
  check_int "misses" 1 (Par.Vcache.misses c);
  check_int "length" 1 (Par.Vcache.length c)

let test_vcache_distinct_keys () =
  let c = Par.Vcache.create () in
  List.iter
    (fun k ->
      check_string "value per key" k
        (Par.Vcache.find_or_add c k (fun () -> k)))
    [ "a"; "b"; "c"; "a" ];
  check_int "three distinct keys" 3 (Par.Vcache.length c);
  check_int "one hit (the repeated a)" 1 (Par.Vcache.hits c)

let test_vcache_shared_across_domains () =
  let c = Par.Vcache.create () in
  let pool = Par.Pool.create ~jobs:4 in
  let out =
    Par.Pool.await_list pool
      (Par.Pool.submit_list pool
         (List.init 60 (fun i () ->
              Par.Vcache.find_or_add c
                (string_of_int (i mod 3))
                (fun () -> i mod 3))))
  in
  Par.Pool.shutdown pool;
  check_bool "every lookup consistent" true
    (List.mapi (fun i v -> v = i mod 3) out |> List.for_all Fun.id);
  check_int "exactly three keys despite races" 3 (Par.Vcache.length c)

(* ------------------------------------------------------------------ *)
(* Shared fixtures for the determinism tests *)

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

let app ?(r = 120) name = Core.App.make ~name ~plant ~gains ~r ~j_star:25 ()

let apps = lazy [ app "A"; app ~r:130 "B"; app ~r:140 "C" ]

let spec ?(name = "S") ?(id = 0) ~t_w_max ~dmin ~dmax ~r () =
  Sched.Appspec.make ~id ~name ~t_w_max
    ~t_dw_min:(Array.make (t_w_max + 1) dmin)
    ~t_dw_max:(Array.make (t_w_max + 1) dmax)
    ~r

let pair ~r =
  [|
    spec ~name:"A" ~id:0 ~t_w_max:1 ~dmin:3 ~dmax:4 ~r ();
    spec ~name:"B" ~id:1 ~t_w_max:2 ~dmin:2 ~dmax:5 ~r ();
  |]

(* everything in a Dverify result except wall-clock time *)
let dv_key (r : Core.Dverify.result) =
  ( r.verdict,
    r.stats.Core.Dverify.states,
    r.stats.Core.Dverify.transitions,
    r.stats.Core.Dverify.max_wait )

(* ------------------------------------------------------------------ *)
(* Dverify determinism *)

let test_dverify_deterministic_safe () =
  let g = pair ~r:30 in
  let results =
    sharded_runs [ 1; 2; 4 ] (fun () ->
        dv_key (Core.Dverify.verify g))
  in
  check_bool "safe group: identical verdict and stats" true
    (all_equal results)

let test_dverify_deterministic_unsafe () =
  (* tight r makes the pair unsafe; counterexamples must coincide *)
  let g = pair ~r:9 in
  let results =
    sharded_runs [ 1; 2; 4 ] (fun () ->
        dv_key (Core.Dverify.verify g))
  in
  check_bool "unsafe group: identical counterexample and stats" true
    (all_equal results);
  match results with
  | (Core.Dverify.Unsafe _, _, _, _) :: _ -> ()
  | _ -> Alcotest.fail "expected an unsafe verdict"

let test_dverify_deterministic_budget () =
  (* a state budget (never a wall-clock deadline: those are inherently
     timing-dependent) must cut off at the same state on any domain *)
  let g = pair ~r:30 in
  let results =
    sharded_runs [ 1; 2; 4 ] (fun () ->
        dv_key (Core.Dverify.verify ~max_states:3 g))
  in
  check_bool "budget cut-off byte-identical" true (all_equal results);
  match results with
  | (Core.Dverify.Undetermined (Core.Dverify.State_budget 3), _, _, _) :: _
    -> ()
  | _ -> Alcotest.fail "expected Undetermined (State_budget 3)"

let test_dverify_bounded_deterministic () =
  let g = pair ~r:30 in
  let results =
    sharded_runs [ 1; 2; 4 ] (fun () ->
        dv_key (Core.Dverify.verify_bounded ~instances:2 g))
  in
  check_bool "bounded engine deterministic" true (all_equal results)

(* ------------------------------------------------------------------ *)
(* Mapping determinism *)

let outcome_string o = Format.asprintf "%a" Core.Mapping.pp o

let test_mapping_deterministic () =
  let apps = Lazy.force apps in
  let packings =
    sharded_runs [ 1; 2; 4 ] (fun () ->
        let cache = Core.Mapping.create_cache () in
        outcome_string (Core.Mapping.first_fit ~cache apps))
  in
  check_bool "first-fit packing byte-identical at jobs 1/2/4" true
    (all_equal packings)

let test_mapping_deterministic_under_budget () =
  (* a verifier whose state budget runs out on the larger groups: the
     Undetermined outcomes are counted, and deterministically *)
  let verifier specs =
    match (Core.Dverify.verify ~max_states:40 specs).Core.Dverify.verdict with
    | Core.Dverify.Safe -> `Safe
    | Core.Dverify.Unsafe _ -> `Unsafe
    | Core.Dverify.Undetermined reason ->
      `Undetermined (Format.asprintf "%a" Core.Dverify.pp_reason reason)
  in
  let apps = Lazy.force apps in
  let outcomes =
    sharded_runs [ 1; 2; 4 ] (fun () ->
        let o =
          Core.Mapping.first_fit
            ~cache:(Core.Mapping.create_cache ())
            ~verifier apps
        in
        (outcome_string o, o.Core.Mapping.undetermined))
  in
  check_bool "budgeted mapping byte-identical" true (all_equal outcomes);
  match outcomes with
  | (_, undetermined) :: _ ->
    check_bool "budget actually bit" true (undetermined > 0)
  | [] -> assert false

let test_mapping_cache_shared_with_optimal () =
  (* a caller-supplied verifier runs unscreened: screened probes are
     answered ahead of the cache, so only unscreened runs make the
     sharing observable *)
  let cache = Core.Mapping.create_cache () in
  let verifier = Core.Mapping.default_verifier in
  let ff = Core.Mapping.first_fit ~cache ~verifier (Lazy.force apps) in
  let opt = Core.Mapping.optimal ~cache ~verifier (Lazy.force apps) in
  let hits, misses = Core.Mapping.cache_stats cache in
  check_bool "optimal reused first-fit verdicts" true (hits > 0);
  check_bool "some probes were fresh" true (misses > 0);
  check_int "same slot count" (List.length ff.Core.Mapping.slots)
    (List.length opt.Core.Mapping.slots)

let test_mapping_cache_does_not_change_counts () =
  (* verifications counts logical questions, so a warm cache must not
     alter the reported outcome *)
  let cache = Core.Mapping.create_cache () in
  let cold = Core.Mapping.first_fit ~cache (Lazy.force apps) in
  let warm = Core.Mapping.first_fit ~cache (Lazy.force apps) in
  check_string "cold = warm outcome" (outcome_string cold)
    (outcome_string warm)

(* ------------------------------------------------------------------ *)
(* Dwell determinism *)

let test_dwell_deterministic () =
  let tables =
    sharded_runs [ 1; 2; 4 ] (fun () ->
        Core.Dwell.compute plant gains ~j_star:25)
  in
  check_bool "dwell table byte-identical at jobs 1/2/4" true
    (all_equal tables)

(* ------------------------------------------------------------------ *)
(* Campaign determinism *)

let slots = lazy [ [ app "A"; app ~r:130 "B" ]; [ app ~r:140 "C" ] ]

let campaign ?groups ~spec_str () =
  let spec =
    match Faults.Spec.parse spec_str with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let groups = match groups with Some g -> g | None -> Lazy.force slots in
  fun () -> Cosim.Campaign.run ~spec ~seed:42L ~runs:4 ~horizon:120 groups

let check_campaign_deterministic summaries =
  check_bool "campaign summary byte-identical at jobs 1/2/4" true
    (all_equal summaries);
  match summaries with
  | Ok s :: _ -> check_bool "runs recorded" true (s.Cosim.Campaign.slots <> [])
  | Error e :: _ -> Alcotest.fail e
  | [] -> assert false

let test_campaign_deterministic () =
  (* a spec's app clauses must name apps of every slot group (each slot
     materialises it separately), so the multi-slot case sticks to
     blackouts *)
  check_campaign_deterministic
    (sharded_runs [ 1; 2; 4 ] (campaign ~spec_str:"blackout:p=0.05,len=3" ()))

let test_campaign_deterministic_app_faults () =
  check_campaign_deterministic
    (sharded_runs [ 1; 2; 4 ]
       (campaign
          ~groups:[ [ app "A"; app ~r:130 "B" ] ]
          ~spec_str:"loss:A@p=0.1;drop:B@p=0.05;burst:A@7" ()))

let test_campaign_error_deterministic () =
  (* a spec naming an unknown app fails materialisation in every slot
     group; the error reported is the first one's, on any domain *)
  let errors =
    sharded_runs [ 1; 2; 4 ] (campaign ~spec_str:"burst:NOSUCH@5" ())
  in
  check_bool "error byte-identical at jobs 1/2/4" true (all_equal errors);
  match errors with
  | Error _ :: _ -> ()
  | Ok _ :: _ -> Alcotest.fail "expected a materialisation error"
  | [] -> assert false

(* ------------------------------------------------------------------ *)
(* Run statistics are per run (regression: the zone engine's
   extrapolation counter was a module-global ref, so concurrent runs
   corrupted each other).  The discrete engine keeps its move memo,
   tables and counters per run too, which is what lets serve run whole
   searches on different domains at once. *)

let case_group names =
  Core.Mapping.specs_of_group
    (List.map
       (fun n ->
         let a = Casestudy.find n in
         Core.App.make ~name:a.Casestudy.name ~plant:a.Casestudy.plant
           ~gains:a.Casestudy.gains ~r:a.Casestudy.r
           ~j_star:a.Casestudy.j_star ())
       names)

let uniform names ~t_w_max ~dmin ~dmax ~r =
  Array.of_list
    (List.mapi
       (fun id name -> spec ~name ~id ~t_w_max ~dmin ~dmax ~r ())
       names)

let test_reach_stats_domain_isolated () =
  let g = pair ~r:30 in
  let reference = Core.Ta_model.verify g in
  let spawn () = Domain.spawn (fun () -> Core.Ta_model.verify g) in
  let a = spawn () and b = spawn () in
  let ra = Domain.join a and rb = Domain.join b in
  check_bool "reference run extrapolates" true
    (reference.Core.Ta_model.stats.Ta.Reach.extrapolations > 0);
  List.iter
    (fun (r : Core.Ta_model.result) ->
      check_int "concurrent run sees its own count"
        reference.Core.Ta_model.stats.Ta.Reach.extrapolations
        r.Core.Ta_model.stats.Ta.Reach.extrapolations;
      check_bool "same outcome" true
        (r.Core.Ta_model.outcome = reference.Core.Ta_model.outcome))
    [ ra; rb ];
  (* the discrete engine: two domains each verify S2, the unsafe AB
     pair and the identical-timing trio (both quotiented), in opposite
     orders, at the same time *)
  let groups =
    [
      ("S2", case_group [ "C6"; "C2" ]);
      ("AB", uniform [ "A"; "B" ] ~t_w_max:1 ~dmin:3 ~dmax:4 ~r:20);
      ("trio", uniform [ "A"; "B"; "C" ] ~t_w_max:8 ~dmin:3 ~dmax:4 ~r:13);
    ]
  in
  let verify (_, specs) = Core.Dverify.verify specs in
  let text (_, specs) (r : Core.Dverify.result) =
    match r.Core.Dverify.verdict with
    | Core.Dverify.Unsafe ce ->
      Format.asprintf "%a" (Core.Dverify.pp_counterexample specs) ce
    | Core.Dverify.Safe | Core.Dverify.Undetermined _ ->
      Format.asprintf "%a" (Core.Dverify.pp_verdict specs) r.Core.Dverify.verdict
  in
  let sequential = List.map verify groups in
  let a = Domain.spawn (fun () -> List.map verify groups) in
  let b = Domain.spawn (fun () -> List.rev_map verify (List.rev groups)) in
  let ra = Domain.join a and rb = Domain.join b in
  List.iter
    (fun concurrent ->
      List.iter2
        (fun ((label, _) as group) (seq, r) ->
          check_bool
            (label ^ ": verdict, states, transitions and max_wait as sequential")
            true
            (dv_key r = dv_key seq);
          check_string (label ^ ": verdict text as sequential") (text group seq)
            (text group r))
        groups
        (List.combine sequential concurrent))
    [ ra; rb ];
  match sequential with
  | [ _; { Core.Dverify.verdict = Core.Dverify.Unsafe _; _ }; _ ] -> ()
  | _ -> Alcotest.fail "AB must be unsafe"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "empty/singleton" `Quick
            test_pool_empty_and_singleton;
          Alcotest.test_case "smallest-index exception" `Quick
            test_pool_exception_smallest_index;
          Alcotest.test_case "nested map" `Quick test_pool_nested_map;
          Alcotest.test_case "submit/await" `Quick test_pool_submit_await;
          Alcotest.test_case "jobs=1 caller-only" `Quick
            test_pool_jobs_one_is_caller_only;
          Alcotest.test_case "jobs=0 rejected" `Quick
            test_pool_rejects_bad_jobs;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
          Alcotest.test_case "submit_list shards and nests" `Quick
            test_pool_submit_list;
        ] );
      ( "vcache",
        [
          Alcotest.test_case "memoises" `Quick test_vcache_memoises;
          Alcotest.test_case "distinct keys" `Quick test_vcache_distinct_keys;
          Alcotest.test_case "shared across domains" `Quick
            test_vcache_shared_across_domains;
        ] );
      ( "dverify determinism",
        [
          Alcotest.test_case "safe" `Quick test_dverify_deterministic_safe;
          Alcotest.test_case "unsafe" `Quick test_dverify_deterministic_unsafe;
          Alcotest.test_case "state budget" `Quick
            test_dverify_deterministic_budget;
          Alcotest.test_case "bounded engine" `Quick
            test_dverify_bounded_deterministic;
        ] );
      ( "mapping determinism",
        [
          Alcotest.test_case "packing" `Slow test_mapping_deterministic;
          Alcotest.test_case "budgeted packing" `Quick
            test_mapping_deterministic_under_budget;
          Alcotest.test_case "cache shared with optimal" `Slow
            test_mapping_cache_shared_with_optimal;
          Alcotest.test_case "cache warmth invisible" `Slow
            test_mapping_cache_does_not_change_counts;
        ] );
      ( "dwell determinism",
        [ Alcotest.test_case "table" `Slow test_dwell_deterministic ] );
      ( "campaign determinism",
        [
          Alcotest.test_case "summary" `Quick test_campaign_deterministic;
          Alcotest.test_case "app faults" `Quick
            test_campaign_deterministic_app_faults;
          Alcotest.test_case "error path" `Quick
            test_campaign_error_deterministic;
        ] );
      ( "reach stats",
        [
          Alcotest.test_case "domain isolated" `Quick
            test_reach_stats_domain_isolated;
        ] );
    ]
