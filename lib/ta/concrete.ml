type state = {
  locs : int array;
  store : Automaton.store;
  clocks : int array;
  time : int;
}

type action = { label : string; edges : (int * Automaton.edge) list }

type policy = state -> action list -> action option

exception Stuck of string

let initial net =
  {
    locs = Array.map (fun a -> a.Automaton.initial) net.Network.automata;
    store = net.Network.initial_store;
    clocks = Array.make (net.Network.clock_count + 1) 0;
    time = 0;
  }

let guard_holds state (g : Automaton.clock_guard) =
  let v = state.clocks.(g.Automaton.clock) in
  let bound = g.Automaton.value state.store in
  match g.Automaton.cmp with
  | Automaton.Lt -> v < bound
  | Automaton.Le -> v <= bound
  | Automaton.Gt -> v > bound
  | Automaton.Ge -> v >= bound
  | Automaton.Eq -> v = bound

let edge_ready state (e : Automaton.edge) =
  List.for_all (guard_holds state) e.Automaton.guards
  && e.Automaton.data_guard state.store

let loc_kind net state ai =
  net.Network.automata.(ai).Automaton.locations.(state.locs.(ai)).Automaton.kind

let committed_present net state =
  let any = ref false in
  Array.iteri
    (fun ai _ ->
      match loc_kind net state ai with
      | Automaton.Committed -> any := true
      | Automaton.Urgent | Automaton.Normal -> ())
    state.locs;
  !any

let urgent_or_committed net state =
  let any = ref false in
  Array.iteri
    (fun ai _ ->
      match loc_kind net state ai with
      | Automaton.Committed | Automaton.Urgent -> any := true
      | Automaton.Normal -> ())
    state.locs;
  !any

let enabled net state =
  let automata = net.Network.automata in
  let n = Array.length automata in
  let committed = committed_present net state in
  let loc_committed ai =
    match loc_kind net state ai with
    | Automaton.Committed -> true
    | Automaton.Urgent | Automaton.Normal -> false
  in
  let current_edges ai = net.Network.edge_index.(ai).(state.locs.(ai)) in
  let actions = ref [] in
  for ai = 0 to n - 1 do
    List.iter
      (fun e ->
        match e.Automaton.sync with
        | Some _ -> ()
        | None ->
          if ((not committed) || loc_committed ai) && edge_ready state e then
            actions :=
              {
                label =
                  Printf.sprintf "%s: %s -> %s" automata.(ai).Automaton.name
                    automata.(ai).Automaton.locations.(e.Automaton.src)
                      .Automaton.loc_name
                    automata.(ai).Automaton.locations.(e.Automaton.dst)
                      .Automaton.loc_name;
                edges = [ (ai, e) ];
              }
              :: !actions)
      (current_edges ai)
  done;
  for sender = 0 to n - 1 do
    List.iter
      (fun se ->
        match se.Automaton.sync with
        | Some (Automaton.Send c) when edge_ready state se ->
          for receiver = 0 to n - 1 do
            if receiver <> sender then
              List.iter
                (fun re ->
                  match re.Automaton.sync with
                  | Some (Automaton.Recv c') when c' = c ->
                    if
                      ((not committed)
                      || loc_committed sender || loc_committed receiver)
                      && edge_ready state re
                    then begin
                      let chan =
                        if c < Array.length net.Network.channel_names then
                          net.Network.channel_names.(c)
                        else string_of_int c
                      in
                      actions :=
                        {
                          label =
                            Printf.sprintf "%s!%s %s?%s"
                              automata.(sender).Automaton.name chan
                              automata.(receiver).Automaton.name chan;
                          edges = [ (sender, se); (receiver, re) ];
                        }
                        :: !actions
                    end
                  | Some (Automaton.Recv _ | Automaton.Send _) | None -> ())
                (current_edges receiver)
          done
        | Some (Automaton.Send _ | Automaton.Recv _) | None -> ())
      (current_edges sender)
  done;
  List.rev !actions

let invariants_hold net state =
  let ok = ref true in
  Array.iteri
    (fun ai loc ->
      List.iter
        (fun g -> if not (guard_holds state g) then ok := false)
        net.Network.automata.(ai).Automaton.locations.(loc).Automaton.invariant)
    state.locs;
  !ok

let can_delay net state =
  (not (urgent_or_committed net state))
  &&
  let advanced =
    {
      state with
      clocks = Array.mapi (fun i v -> if i = 0 then 0 else v + 1) state.clocks;
    }
  in
  invariants_hold net advanced

let fire net state action =
  let locs = Array.copy state.locs in
  List.iter (fun (ai, e) -> locs.(ai) <- e.Automaton.dst) action.edges;
  let store =
    List.fold_left (fun s (_, e) -> e.Automaton.update s) state.store
      action.edges
  in
  let clocks = Array.copy state.clocks in
  List.iter
    (fun (_, e) ->
      List.iter
        (fun (c, v) -> clocks.(c) <- v)
        (e.Automaton.resets state.store))
    action.edges;
  let state' = { state with locs; store; clocks } in
  if not (invariants_hold net state') then
    raise
      (Stuck
         (Printf.sprintf "action %s violates a destination invariant"
            action.label));
  state'

let step net policy state =
  let actions = enabled net state in
  match policy state actions with
  | Some a -> (fire net state a, Some a)
  | None ->
    if urgent_or_committed net state then
      raise
        (Stuck
           (if actions = [] then "deadlock in a committed/urgent configuration"
            else "policy refused to fire in a committed/urgent configuration"))
    else if can_delay net state then
      ( {
          state with
          clocks =
            Array.mapi (fun i v -> if i = 0 then 0 else v + 1) state.clocks;
          time = state.time + 1;
        },
        None )
    else
      raise
        (Stuck
           (if actions = [] then "time-locked: invariant forbids delay, nothing enabled"
            else "invariant forbids delay and the policy refused every action"))

let run net policy ~until observer =
  let state = ref (initial net) in
  let guard = ref 0 in
  while !state.time < until do
    incr guard;
    if !guard > 1_000_000 then raise (Stuck "micro-step budget exceeded");
    let state', fired = step net policy !state in
    observer state' fired;
    state := state'
  done;
  !state

let first_enabled _state = function [] -> None | a :: _ -> Some a

let prefer pred _state actions =
  match List.find_opt (fun a -> pred a.label) actions with
  | Some _ as a -> a
  | None -> (match actions with [] -> None | a :: _ -> Some a)

(* ------------------------------------------------------------------ *)
(* Exhaustive enumeration, as an instantiation of the generic {!Search}
   engine: the differential oracle that pins zone-graph reachability
   against concrete integer-time execution.  The caller supplies the
   finite abstraction ([norm], e.g. saturating clock counters) that
   makes the space finite. *)

let enumerate ?(max_states = 1_000_000) ~norm net =
  let acc = ref [] in
  let module Space = Search.Make (struct
    type nonrec state = state
    type label = unit

    module Key = struct
      type nonrec t = state

      let equal (a : state) (b : state) =
        a.locs = b.locs && a.store = b.store && a.clocks = b.clocks
        && a.time = b.time

      let hash (s : state) =
        Hashtbl.hash_param 1000 1000 (s.locs, s.store, s.clocks, s.time)
    end

    let key s = s

    let successors s emit =
      if can_delay net s then emit () (norm (fst (step net (fun _ _ -> None) s)));
      List.iter
        (fun a -> emit () (norm (fst (step net (fun _ _ -> Some a) s))))
        (enabled net s)

    let keep = Fun.id
    let is_target _ = false
  end) in
  let r =
    Space.run ~max_states ~max_states_check:`Insert
      ~on_insert:(fun s -> acc := s :: !acc)
      (norm (initial net))
  in
  match r.Space.outcome with
  | Space.Exhausted reason ->
    failwith
      (Format.asprintf "Concrete.enumerate: %a" Search.(fun ppf -> function
         | Max_states n -> Format.fprintf ppf "state budget (%d) exhausted" n
         | Deadline d -> Format.fprintf ppf "deadline (%.3fs) exceeded" d)
         reason)
  | Space.Found _ | Space.Completed -> List.rev !acc
