type t = { orbit_of : int array; members : int list array }

let partition ~n ~same =
  let orbit_of = Array.make n (-1) in
  let reps = ref [] (* (orbit index, smallest member) newest first *) in
  let norbits = ref 0 in
  for i = 0 to n - 1 do
    let rec find = function
      | [] ->
        let o = !norbits in
        incr norbits;
        reps := (o, i) :: !reps;
        o
      | (o, r) :: rest -> if same r i then o else find rest
    in
    orbit_of.(i) <- find !reps
  done;
  let members = Array.make !norbits [] in
  (* collect descending, reverse once: members end up ascending *)
  for i = n - 1 downto 0 do
    members.(orbit_of.(i)) <- i :: members.(orbit_of.(i))
  done;
  { orbit_of; members }

let nontrivial t =
  Array.exists (function _ :: _ :: _ -> true | _ -> false) t.members

let orbits t = Array.copy t.members

let note_collapsed () =
  if Obs.Trace_ctx.enabled () then Obs.Metric.count "search.orbit_collapsed" 1
