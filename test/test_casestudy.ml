(* Paper-facing tests: the six case-study applications reproduce the
   published Table 1 within the documented tolerance, and the
   motivational example of Sec. 3.1 reproduces Fig. 2. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float_loose = Alcotest.(check (float 1e-6))

let table_of (a : Casestudy.app) =
  Core.Dwell.compute a.Casestudy.plant a.Casestudy.gains ~j_star:a.Casestudy.j_star

(* Entries may differ from the printed table by at most this many
   samples: the paper's plant/controller constants are truncated to 4-5
   digits (see DESIGN.md). *)
let tolerance = 2

let within_tol a b = abs (a - b) <= tolerance

let test_app_data_consistency () =
  check_int "six apps" 6 (List.length Casestudy.all);
  List.iter
    (fun (a : Casestudy.app) ->
      check_bool (a.Casestudy.name ^ " J* < r") true
        (a.Casestudy.j_star < a.Casestudy.r);
      check_float_loose "h" Casestudy.h a.Casestudy.plant.Control.Plant.h;
      (* gains have consistent dimensions by construction; plants must
         be controllable for the designs to exist *)
      check_bool (a.Casestudy.name ^ " controllable") true
        (Control.Ctrb.is_controllable a.Casestudy.plant.Control.Plant.phi
           a.Casestudy.plant.Control.Plant.gamma))
    Casestudy.all

let test_find () =
  check_bool "find C3" true (String.equal (Casestudy.find "C3").Casestudy.name "C3");
  check_bool "missing" true
    (try ignore (Casestudy.find "C9"); false with Not_found -> true)

let test_closed_loops_stable () =
  List.iter
    (fun (a : Casestudy.app) ->
      let tt =
        Control.Feedback.closed_loop_tt a.Casestudy.plant
          a.Casestudy.gains.Control.Switched.kt
      in
      let et =
        Control.Feedback.closed_loop_et a.Casestudy.plant
          a.Casestudy.gains.Control.Switched.ke
      in
      check_bool (a.Casestudy.name ^ " TT stable") true (Linalg.Eig.is_schur_stable tt);
      check_bool (a.Casestudy.name ^ " ET stable") true (Linalg.Eig.is_schur_stable et))
    Casestudy.all

let check_row (a : Casestudy.app) =
  let t = table_of a in
  let p = Casestudy.paper a in
  check_bool
    (Printf.sprintf "%s JT %d vs paper %d" a.Casestudy.name t.Core.Dwell.jt p.Casestudy.p_jt)
    true
    (within_tol t.Core.Dwell.jt p.Casestudy.p_jt);
  check_bool
    (Printf.sprintf "%s JE %d vs paper %d" a.Casestudy.name t.Core.Dwell.je p.Casestudy.p_je)
    true
    (within_tol t.Core.Dwell.je p.Casestudy.p_je);
  check_bool
    (Printf.sprintf "%s T*w %d vs paper %d" a.Casestudy.name t.Core.Dwell.t_w_max
       p.Casestudy.p_t_w_max)
    true
    (within_tol t.Core.Dwell.t_w_max p.Casestudy.p_t_w_max);
  (* per-entry comparison over the common index range *)
  let common =
    Int.min (Array.length t.Core.Dwell.t_dw_min) (Array.length p.Casestudy.p_t_dw_min)
  in
  for i = 0 to common - 1 do
    check_bool
      (Printf.sprintf "%s T-dw[%d]" a.Casestudy.name i)
      true
      (within_tol t.Core.Dwell.t_dw_min.(i) p.Casestudy.p_t_dw_min.(i));
    check_bool
      (Printf.sprintf "%s T+dw[%d]" a.Casestudy.name i)
      true
      (within_tol t.Core.Dwell.t_dw_max.(i) p.Casestudy.p_t_dw_max.(i))
  done

let table1_cases =
  List.map
    (fun (a : Casestudy.app) ->
      Alcotest.test_case ("Table 1 row " ^ a.Casestudy.name) `Slow (fun () ->
          check_row a))
    Casestudy.all

(* exact reproductions for the rows whose constants are not truncated *)
let test_c1_exact () =
  let t = table_of Casestudy.c1 in
  let p = Casestudy.paper Casestudy.c1 in
  check_int "JT" p.Casestudy.p_jt t.Core.Dwell.jt;
  check_int "JE" p.Casestudy.p_je t.Core.Dwell.je;
  check_int "T*w" p.Casestudy.p_t_w_max t.Core.Dwell.t_w_max;
  check_bool "T-dw exact" true (t.Core.Dwell.t_dw_min = p.Casestudy.p_t_dw_min);
  check_bool "T+dw exact" true (t.Core.Dwell.t_dw_max = p.Casestudy.p_t_dw_max)

let test_c6_exact () =
  let t = table_of Casestudy.c6 in
  let p = Casestudy.paper Casestudy.c6 in
  check_int "JT" p.Casestudy.p_jt t.Core.Dwell.jt;
  check_int "JE" p.Casestudy.p_je t.Core.Dwell.je;
  check_bool "T-dw exact" true (t.Core.Dwell.t_dw_min = p.Casestudy.p_t_dw_min);
  check_bool "T+dw exact" true (t.Core.Dwell.t_dw_max = p.Casestudy.p_t_dw_max)

(* Every field of every table, j_at_min/j_at_max included (`cpsdim
   tables` prints neither), pinned through its serialisation, with the
   baseline's (w_star, c_occ) read from the same simulations. *)
let pinned =
  [
    ( "C1",
      "v2 18 9 35 11 1 | 3*1,4*1,3*7,4*2,5*1 | 6*2,5*3,6*1,5*2,4*2,5*2 | \
       18*1,14*1,17*1,18*1,17*1,18*4,17*1,18*2 | \
       9*1,10*1,11*1,12*1,13*2,14*1,15*1,16*1,17*2,18*1",
      (11, 9) );
    ( "C2",
      "v2 25 15 50 13 1 | \
       7*2,6*1,7*1,6*1,7*1,6*1,7*1,6*1,7*1,6*1,7*2,8*1 | \
       9*3,10*1,8*1,9*2,10*1,8*2,9*1,8*1,7*1,8*1 | \
       21*1,22*1,24*1,21*1,23*1,22*1,24*1,23*1,24*1,23*1,25*2,24*1,25*1 | \
       15*1,16*2,17*1,18*1,19*2,20*1,21*1,22*2,24*2,25*1",
      (13, 15) );
    ( "C3",
      "v2 20 11 29 15 1 | 4*1,5*1,4*14 | 9*2,8*2,7*3,6*3,5*3,4*3 | \
       20*1,18*1,20*11,19*1,20*2 | \
       10*1,11*1,12*2,13*1,14*2,15*1,16*2,17*1,18*2,19*1,20*2",
      (14, 11) );
    ( "C4",
      "v2 19 10 31 12 1 | 5*2,6*1,5*10 | 9*1,8*4,7*4,6*3,5*1 | \
       19*2,17*1,19*10 | 10*1,11*1,12*2,13*1,14*1,15*2,16*1,17*1,18*2,19*1",
      (12, 10) );
    ( "C5",
      "v2 18 10 25 12 1 | 4*1,3*7,4*5 | \
       9*1,8*1,7*1,8*1,7*1,6*1,7*1,6*1,5*2,4*3 | 17*1,18*7,17*3,18*2 | \
       10*1,11*1,12*2,13*1,14*2,15*1,16*2,17*1,18*2",
      (12, 10) );
    ( "C6",
      "v2 20 11 41 12 1 | 7*1,8*1,7*1,8*1,7*1,8*1,7*1,8*1,7*1,8*1,7*1,8*2 | \
       11*2,10*4,9*3,8*4 | \
       20*1,18*1,20*1,18*1,20*1,18*1,20*1,18*1,20*1,18*1,20*3 | \
       11*1,12*1,13*1,14*2,15*1,16*1,17*2,18*1,19*1,20*2",
      (12, 11) );
  ]

let test_tables_pinned () =
  List.iter
    (fun (name, encoding, (w_star, c_occ)) ->
      let a = Casestudy.find name in
      Alcotest.(check string)
        (name ^ " table") encoding
        (Core.Table_codec.table_to_string (table_of a));
      let bp =
        Core.Baseline_params.compute a.Casestudy.plant a.Casestudy.gains
          ~j_star:a.Casestudy.j_star
      in
      check_int (name ^ " w_star") w_star bp.Core.Baseline_params.w_star;
      check_int (name ^ " c_occ") c_occ bp.Core.Baseline_params.c_occ)
    pinned

(* ------------------------------------------------------------------ *)
(* Sec. 3.1, Fig. 2: the motivational example *)

let fig2_settling mode_at gains =
  let y =
    Control.Switched.run Casestudy.c1.Casestudy.plant gains mode_at
      (Control.Switched.disturbed Casestudy.c1.Casestudy.plant)
      300
  in
  Control.Settle.settling_index y

let test_fig2_settling_times () =
  let g = Casestudy.c1.Casestudy.gains in
  let gu = Casestudy.c1_unstable_pair in
  (* K_T alone: 0.18 s = 9 samples *)
  check_bool "KT" true (fig2_settling (Core.Strategy.pure Control.Switched.Mt) g = Some 9);
  (* K_E alone: 0.70 s = 35 samples (paper plots ~0.68 s) *)
  check_bool "KEs" true (fig2_settling (Core.Strategy.pure Control.Switched.Me) g = Some 35);
  check_bool "KEu" true (fig2_settling (Core.Strategy.pure Control.Switched.Me) gu = Some 35);
  (* 4 ME + 4 MT + ME...: 0.28 s with the stable pair *)
  let seq k = Core.Strategy.mode_at ~t_w:4 ~t_dw:4 k in
  check_bool "stable mix" true (fig2_settling seq g = Some 14);
  (* 0.58 s with the non-switching-stable pair *)
  check_bool "unstable mix" true (fig2_settling seq gu = Some 29)

let test_fig4_t_w_zero_matches_dedicated () =
  (* paper: for T_w = 0, leaving MT after T+_dw = 6 samples still gives
     the dedicated-slot settling time of 0.18 s *)
  let t = table_of Casestudy.c1 in
  check_int "T+dw(0)" 6 t.Core.Dwell.t_dw_max.(0);
  check_int "J at T+dw(0) = JT" t.Core.Dwell.jt t.Core.Dwell.j_at_max.(0)

let () =
  Alcotest.run "casestudy"
    [
      ( "data",
        [
          Alcotest.test_case "consistency" `Quick test_app_data_consistency;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "closed loops stable" `Quick test_closed_loops_stable;
        ] );
      ("table1", table1_cases);
      ( "exact rows",
        [
          Alcotest.test_case "C1 exact" `Quick test_c1_exact;
          Alcotest.test_case "C6 exact" `Quick test_c6_exact;
          Alcotest.test_case "encodings and baseline pinned" `Quick
            test_tables_pinned;
        ] );
      ( "motivational example",
        [
          Alcotest.test_case "Fig. 2 settling times" `Quick test_fig2_settling_times;
          Alcotest.test_case "Fig. 4 Tw=0 saturation" `Quick test_fig4_t_w_zero_matches_dedicated;
        ] );
    ]
