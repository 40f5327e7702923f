type report = {
  slots : (string list * Trace.t) list;
  settlings : (string * int * int option) list;
  all_requirements_met : bool;
  tt_samples : (string * int) list;
}

let run ~slots ~disturbances ~horizon =
  let names_of group = List.map (fun (a : Core.App.t) -> a.Core.App.name) group in
  let all_names = List.concat_map names_of slots in
  if List.length (List.sort_uniq compare all_names) <> List.length all_names
  then invalid_arg "System.run: an application appears in two slots";
  List.iter
    (fun (_, name) ->
      if not (List.mem name all_names) then
        invalid_arg ("System.run: unmapped application " ^ name))
    disturbances;
  let per_slot =
    List.map
      (fun group ->
        let names = names_of group in
        let mine =
          List.filter (fun (_, name) -> List.mem name names) disturbances
        in
        let scenario =
          Scenario.make ~apps:group ~disturbances:mine ~horizon
        in
        (names, group, Engine.run scenario))
      slots
  in
  let settlings =
    List.concat_map
      (fun (_, _, trace) ->
        List.map
          (fun (sample, id) ->
            ( trace.Trace.names.(id),
              sample,
              Trace.settling_after trace ~id ~sample ))
          trace.Trace.disturbances)
      per_slot
  in
  let all_requirements_met =
    List.for_all
      (fun (_, group, trace) -> Trace.meets_requirements trace group)
      per_slot
  in
  let tt_samples =
    List.concat_map
      (fun (names, _, trace) ->
        List.mapi (fun id name -> (name, Trace.tt_samples trace ~id)) names)
      per_slot
  in
  {
    slots = List.map (fun (names, _, trace) -> (names, trace)) per_slot;
    settlings;
    all_requirements_met;
    tt_samples;
  }

let bus_validate ~bus ?loss ?h_us t =
  Bus_check.validate_slots ~bus ?loss ?h_us t.slots

let of_mapping (outcome : Core.Mapping.outcome) ~disturbances ~horizon =
  run
    ~slots:(List.map (fun s -> s.Core.Mapping.apps) outcome.Core.Mapping.slots)
    ~disturbances ~horizon

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (names, trace) ->
      Format.fprintf ppf "S%d = {%s}: " (i + 1) (String.concat ", " names);
      let intervals = Trace.owner_intervals trace in
      Format.fprintf ppf "%s@,"
        (String.concat " "
           (List.map
              (fun (id, a, b) ->
                Printf.sprintf "%s[%d..%d]" trace.Trace.names.(id) a b)
              intervals)))
    t.slots;
  List.iter
    (fun (name, sample, j) ->
      match j with
      | Some j -> Format.fprintf ppf "%s@%d: J = %d samples@," name sample j
      | None -> Format.fprintf ppf "%s@%d: no settling@," name sample)
    t.settlings;
  Format.fprintf ppf "all requirements met: %b@]" t.all_requirements_met
