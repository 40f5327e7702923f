(* A complete dimensioning report for the paper's case study:

   1. first-fit mapping (the paper's heuristic) and the exact minimum
      (subset DP) — is the heuristic optimal here?
   2. per-application worst-case waits and settling margins on the
      chosen slots — how tight is the dimensioning really?
   3. a counterexample for a group that does NOT fit, showing the
      schedule that breaks it;
   4. UPPAAL model export for external cross-checking.

   Run with:  dune exec examples/dimensioning_report.exe *)

let () =
  let apps =
    List.map
      (fun (a : Casestudy.app) ->
        Core.App.make ~name:a.Casestudy.name ~plant:a.Casestudy.plant
          ~gains:a.Casestudy.gains ~r:a.Casestudy.r ~j_star:a.Casestudy.j_star
          ())
      Casestudy.all
  in

  Format.printf "== mapping ==@.";
  let ff = Core.Mapping.first_fit apps in
  Format.printf "first-fit:@.%a@." Core.Mapping.pp ff;
  let opt = Core.Mapping.optimal apps in
  Format.printf "exact minimum:@.%a@." Core.Mapping.pp opt;
  Format.printf "first-fit is %s@.@."
    (if List.length ff.Core.Mapping.slots = List.length opt.Core.Mapping.slots
     then "optimal here"
     else "NOT optimal here");

  Format.printf "== margins on the first-fit slots ==@.";
  List.iter
    (fun slot ->
      Format.printf "S%d:@.%a@." (slot.Core.Mapping.index + 1) Core.Margin.pp
        (Core.Margin.analyse slot.Core.Mapping.apps))
    ff.Core.Mapping.slots;

  Format.printf "@.== why C6 cannot join S1 ==@.";
  let overfull =
    List.filter
      (fun (a : Core.App.t) ->
        List.mem a.Core.App.name [ "C1"; "C5"; "C4"; "C6" ])
      apps
  in
  let specs = Core.Mapping.specs_of_group overfull in
  (* the breadth-first reference finds a shortest failing schedule, as
     `cpsdim verify` prints it; the engine's depth-first witness is
     just as real but can run for hundreds of samples *)
  (match (Core.Dverify.reference specs).Core.Dverify.verdict with
   | Core.Dverify.Safe -> Format.printf "unexpectedly safe?!@."
   | Core.Dverify.Undetermined _ -> Format.printf "unexpectedly undetermined?!@."
   | Core.Dverify.Unsafe ce ->
     Format.printf "%a@." (Core.Dverify.pp_counterexample specs) ce);

  Format.printf "@.== UPPAAL export ==@.";
  List.iter
    (fun slot ->
      let specs = Core.Mapping.specs_of_group slot.Core.Mapping.apps in
      let basename = Printf.sprintf "slot%d" (slot.Core.Mapping.index + 1) in
      match
        Core.Uppaal_export.write ~dir:(Filename.get_temp_dir_name ()) ~basename
          specs
      with
      | Ok path -> Format.printf "wrote %s (+ .q)@." path
      | Error m -> Format.printf "export failed: %s@." m)
    ff.Core.Mapping.slots
