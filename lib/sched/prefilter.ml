type witness = {
  steps : (int list * Slot_state.t) list;
  failing : int list;
}

type decision = Analytic_safe | Analytic_unsafe of witness | Inconclusive

(* ------------------------------------------------------------------ *)
(* Sufficient accept: busy-window fixed point.

   While application [i] waits, every slot update serves some
   competitor [j].  One grant of [j] occupies at most [quantum j]
   samples before the contended slot is handed over: under eager
   preemption the occupant is preempted at its minimum dwell whenever
   somebody waits (and an occupant already past it hands over
   immediately), so the quantum is the largest T⁻_dw entry.
   Consecutive grants of [j] start at least [r_j - T*_w(j)] samples
   apart: the next disturbance arrives at
   least [r_j] after the previous one, and the previous grant started
   at most [T*_w(j)] after that previous arrival (later would already
   be a miss, and the bound only has to hold on miss-free prefixes —
   the first miss is what the fixed point excludes). *)

let quantum (s : Appspec.t) = Array.fold_left Int.max 0 s.Appspec.t_dw_min

(* grants of [j] whose occupancy can intersect a window of [s]
   samples: start points at least [period] apart inside an interval of
   [s + c] samples (one quantum of carry-in) *)
let grants_in ~period ~c s = (((s + c - 1) / period) + 1) * c

let busy_window specs i =
  let deadline = specs.(i).Appspec.t_w_max in
  let interference s =
    let acc = ref 0 in
    Array.iteri
      (fun j (sp : Appspec.t) ->
        if j <> i then begin
          let c = quantum sp in
          let period = Int.max 1 (sp.Appspec.r - sp.Appspec.t_w_max) in
          acc := !acc + grants_in ~period ~c s
        end)
      specs;
    !acc
  in
  let rec iterate s guard =
    if s > deadline || guard > 1000 then None
    else
      let s' = interference s in
      if s' = s then Some s else iterate s' (guard + 1)
  in
  iterate 0 0

let accepts specs =
  let n = Array.length specs in
  let rec go i =
    i >= n
    ||
    match busy_window specs i with
    | Some _ -> go (i + 1)
    | None -> false
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Necessary reject: demand-bound trigger + saturation witness.

   The trigger is a cheap overload estimate — either one simultaneous
   burst already demands more slot time than some T*_w affords, or the
   long-run utilisation exceeds the slot.  It only gates the witness
   search; the verdict comes from simulating the greedy saturation
   adversary (every application re-disturbed the moment the sporadic
   model allows) under a few arrival orders.  Each simulated schedule
   is a genuine adversary strategy of the exact engine, so a miss here
   is a miss there. *)

let min_quantum (s : Appspec.t) = Array.fold_left Int.min max_int s.Appspec.t_dw_min

let overload_trigger specs =
  let burst =
    (* one simultaneous burst: competitors served ahead of [i] consume
       at least their smallest minimum dwell each *)
    let total = Array.fold_left (fun acc sp -> acc + min_quantum sp) 0 specs in
    let i_overloaded i (sp : Appspec.t) =
      total - min_quantum sp > sp.Appspec.t_w_max && i >= 0
    in
    let found = ref false in
    Array.iteri (fun i sp -> if i_overloaded i sp then found := true) specs;
    !found
  in
  burst
  ||
  (* sustained overload: every application re-disturbed each effective
     period demands more than one slot sample per sample *)
  let u =
    Array.fold_left
      (fun acc (sp : Appspec.t) ->
        acc
        +. float_of_int (min_quantum sp)
           /. float_of_int (Int.max 1 (sp.Appspec.r - sp.Appspec.t_w_max)))
      0. specs
  in
  u > 1.

let saturate specs ~order ~horizon =
  let rec run st steps t =
    if t >= horizon then None
    else begin
      let disturbed = order (Slot_state.disturbable specs st) in
      let st', (outcome : Slot_state.outcome) =
        Slot_state.tick specs st ~disturbed
      in
      let steps = (disturbed, st') :: steps in
      match outcome.Slot_state.new_errors with
      | [] -> run st' steps (t + 1)
      | failing -> Some { steps = List.rev steps; failing }
    end
  in
  run (Slot_state.initial specs) [] 0

let arrival_orders specs =
  let by_t_w cmp ids =
    List.stable_sort
      (fun a b -> cmp specs.(a).Appspec.t_w_max specs.(b).Appspec.t_w_max)
      ids
  in
  [
    Fun.id;
    List.rev;
    by_t_w compare;
    by_t_w (fun a b -> compare b a);
  ]

let rejects specs =
  if Array.length specs < 2 || not (overload_trigger specs) then None
  else begin
    let horizon =
      64 + (2 * Array.fold_left (fun acc (s : Appspec.t) -> acc + s.Appspec.r) 0 specs)
    in
    let rec try_orders = function
      | [] -> None
      | order :: rest -> (
        match saturate specs ~order ~horizon with
        | Some _ as w -> w
        | None -> try_orders rest)
    in
    try_orders (arrival_orders specs)
  end

let decide specs =
  if accepts specs then begin
    Obs.Metric.count "prefilter.accepts" 1;
    Analytic_safe
  end
  else
    match rejects specs with
    | Some w ->
      Obs.Metric.count "prefilter.rejects" 1;
      Analytic_unsafe w
    | None ->
      Obs.Metric.count "prefilter.fallbacks" 1;
      Inconclusive
