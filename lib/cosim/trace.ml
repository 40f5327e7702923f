type t = {
  names : string array;
  h : float;
  outputs : float array array;
  owner : int option array;
  log : Sched.Arbiter.log_entry list;
  disturbances : (int * int) list;
}

let settling_after t ~id ~sample =
  let y = t.outputs.(id) in
  let len = Array.length y in
  if sample < 0 || sample >= len then invalid_arg "Trace.settling_after";
  (* measure on the suffix up to the next disturbance of the same app
     (or the end of the trace) *)
  let stop =
    List.fold_left
      (fun acc (s, i) -> if i = id && s > sample && s < acc then s else acc)
      len t.disturbances
  in
  let suffix = Array.sub y sample (stop - sample) in
  Control.Settle.settling_index suffix

let tt_samples t ~id =
  Array.fold_left
    (fun acc o -> if o = Some id then acc + 1 else acc)
    0 t.owner

let owner_intervals t =
  let acc = ref [] in
  let current = ref None in
  Array.iteri
    (fun k o ->
      match (!current, o) with
      | None, None -> ()
      | None, Some id -> current := Some (id, k)
      | Some (id, first), Some id' when id = id' ->
        ignore first;
        ignore id'
      | Some (id, first), Some id' ->
        acc := (id, first, k - 1) :: !acc;
        current := Some (id', k)
      | Some (id, first), None ->
        acc := (id, first, k - 1) :: !acc;
        current := None)
    t.owner;
  (match !current with
   | Some (id, first) -> acc := (id, first, Array.length t.owner - 1) :: !acc
   | None -> ());
  List.rev !acc

let meets_requirements t apps =
  let apps = Array.of_list apps in
  List.for_all
    (fun (sample, id) ->
      match settling_after t ~id ~sample with
      | Some j -> j <= apps.(id).Core.App.j_star
      | None -> false)
    t.disturbances

let to_gantt t =
  let horizon = Array.length t.owner in
  let width = Array.fold_left (fun m n -> Int.max m (String.length n)) 0 t.names in
  List.init (Array.length t.names) (fun id ->
      let cells =
        String.init horizon (fun k ->
            if List.mem (k, id) t.disturbances then '*'
            else if t.owner.(k) = Some id then '#'
            else '.')
      in
      Printf.sprintf "%-*s |%s|" width t.names.(id) cells)

let to_rows t ~stride =
  if stride < 1 then invalid_arg "Trace.to_rows: stride";
  let n = Array.length t.names in
  let horizon = Array.length t.owner in
  let header =
    "t(s)    "
    ^ String.concat " " (Array.to_list (Array.map (Printf.sprintf "%8s") t.names))
    ^ "   slot"
  in
  let rows = ref [ header ] in
  let k = ref 0 in
  while !k < horizon do
    let owner =
      match t.owner.(!k) with Some id -> t.names.(id) | None -> "-"
    in
    let cells =
      String.concat " "
        (List.init n (fun i -> Printf.sprintf "%8.4f" t.outputs.(i).(!k)))
    in
    rows :=
      Printf.sprintf "%-7.3f %s   %s" (float_of_int !k *. t.h) cells owner
      :: !rows;
    k := !k + stride
  done;
  List.rev !rows
