type target = locs:int array -> store:Automaton.store -> bool

type stats = {
  states : int;
  transitions : int;
  elapsed : float;
  waiting_peak : int;
  inclusion_pruned : int;
  dedup_hits : int;
  extrapolations : int;
}

type trace_step = { automaton : string; state : Network.state }

type budget_reason = Search.budget_reason =
  | Max_states of int
  | Deadline of float

type outcome =
  | Hit of Network.state
  | Unreachable
  | Exhausted of budget_reason

type result = { outcome : outcome; stats : stats; trace : trace_step list }

let pp_budget_reason ppf = function
  | Max_states n -> Format.fprintf ppf "state budget (%d states) exhausted" n
  | Deadline d -> Format.fprintf ppf "deadline (%.3fs) exceeded" d

(* [extra] is a per-run extrapolation counter threaded in by the caller;
   a module-global here would be corrupted by concurrent runs on
   separate domains *)
let fire ~extra net (state : Network.state) label edges =
  (* [edges] pairs each fired edge with its automaton index; for a
     binary synchronisation the sender comes first *)
  let zone =
    List.fold_left
      (fun z (_, e) -> Automaton.apply_guards z state.Network.store e.Automaton.guards)
      state.Network.zone edges
  in
  if Dbm.is_empty zone then None
  else if
    not
      (List.for_all
         (fun (_, e) -> e.Automaton.data_guard state.Network.store)
         edges)
  then None
  else begin
    let locs = Array.copy state.Network.locs in
    List.iter (fun (ai, e) -> locs.(ai) <- e.Automaton.dst) edges;
    let store =
      List.fold_left (fun s (_, e) -> e.Automaton.update s) state.Network.store
        edges
    in
    let zone =
      (* resets are computed from the pre-transition store *)
      List.fold_left
        (fun z (_, e) ->
          List.fold_left
            (fun z (c, v) -> Dbm.reset z c v)
            z
            (e.Automaton.resets state.Network.store))
        zone edges
    in
    let zone = Network.invariant_zone net locs store zone in
    if Dbm.is_empty zone then None
    else begin
      let zone =
        if Network.delay_forbidden net locs then zone
        else Network.invariant_zone net locs store (Dbm.up zone)
      in
      incr extra;
      let zone = Dbm.extrapolate zone net.Network.clock_maxima in
      if Dbm.is_empty zone then None
      else Some (label, { Network.locs; store; zone })
    end
  end

let successors_counted ~extra net (state : Network.state) =
  let committed_present = Network.is_committed net state.Network.locs in
  let automata = net.Network.automata in
  let n = Array.length automata in
  let loc_committed ai =
    match
      automata.(ai).Automaton.locations.(state.Network.locs.(ai)).Automaton.kind
    with
    | Automaton.Committed -> true
    | Automaton.Urgent | Automaton.Normal -> false
  in
  let current_edges ai = net.Network.edge_index.(ai).(state.Network.locs.(ai)) in
  let results = ref [] in
  (* internal transitions *)
  for ai = 0 to n - 1 do
    if (not committed_present) || loc_committed ai then
      List.iter
        (fun e ->
          match e.Automaton.sync with
          | Some _ -> ()
          | None ->
            let label =
              Printf.sprintf "%s: %s -> %s" automata.(ai).Automaton.name
                automata.(ai).Automaton.locations.(e.Automaton.src).Automaton.loc_name
                automata.(ai).Automaton.locations.(e.Automaton.dst).Automaton.loc_name
            in
            (match fire ~extra net state label [ (ai, e) ] with
             | Some succ -> results := succ :: !results
             | None -> ()))
        (current_edges ai)
  done;
  (* binary synchronisations *)
  for sender = 0 to n - 1 do
    List.iter
      (fun se ->
        match se.Automaton.sync with
        | Some (Automaton.Send c) ->
          for receiver = 0 to n - 1 do
            if receiver <> sender then
              List.iter
                (fun re ->
                  match re.Automaton.sync with
                  | Some (Automaton.Recv c') when c' = c ->
                    if
                      (not committed_present)
                      || loc_committed sender || loc_committed receiver
                    then begin
                      let chan =
                        if c < Array.length net.Network.channel_names then
                          net.Network.channel_names.(c)
                        else string_of_int c
                      in
                      let label =
                        Printf.sprintf "%s!%s %s?%s"
                          automata.(sender).Automaton.name chan
                          automata.(receiver).Automaton.name chan
                      in
                      match
                        fire ~extra net state label
                          [ (sender, se); (receiver, re) ]
                      with
                      | Some succ -> results := succ :: !results
                      | None -> ()
                    end
                  | Some (Automaton.Recv _ | Automaton.Send _) | None -> ())
                (current_edges receiver)
          done
        | Some (Automaton.Recv _) | None -> ())
      (current_edges sender)
  done;
  List.rev !results

let successors net state = successors_counted ~extra:(ref 0) net state

(* ------------------------------------------------------------------ *)
(* The explorer is an instantiation of the generic {!Search} engine.

   Keys are typed and O(1): the zone is interned (hash-consed by the
   deep {!Dbm.hash}) into a dense integer id per run, and the discrete
   part (locations + store) is packed into one flat int array with a
   precomputed FNV digest, so an exact-dedup lookup never rehashes or
   deep-compares a whole symbolic state.  Zone-inclusion pruning is the
   engine's coverage antichain, grouped by the packed discrete key. *)

(* FNV-1a over an int array, seeded so the empty array still mixes *)
let fnv seed a =
  let h = ref (0x811c9dc5 lxor seed) in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor a.(i)) * 0x01000193
  done;
  !h land max_int

let array_eq (a : int array) b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if a.(i) <> b.(i) then ok := false
  done;
  !ok

(* packed discrete key: locations then store, one array *)
let pack_disc locs store =
  let nl = Array.length locs and ns = Array.length store in
  let a = Array.make (nl + ns) 0 in
  Array.blit locs 0 a 0 nl;
  Array.blit store 0 a nl ns;
  a

type xkey = { xh : int; xdisc : int array; zone : int }

module Zone_tbl = Hashtbl.Make (Dbm)

let run_impl ~max_states ~deadline ~inclusion net target =
  let extra = ref 0 in
  let initial = Network.initial_state net in
  (* hash-consed zone store: physical id per distinct canonical DBM *)
  let zones = Zone_tbl.create 4096 in
  let zone_ctr = ref 0 in
  let intern z =
    match Zone_tbl.find_opt zones z with
    | Some id -> id
    | None ->
      let id = !zone_ctr in
      incr zone_ctr;
      Zone_tbl.add zones z id;
      id
  in
  let module Space = Search.Make (struct
    type state = Network.state
    type label = string

    module Key = struct
      type t = xkey

      let equal a b = a.zone = b.zone && a.xh = b.xh && array_eq a.xdisc b.xdisc
      let hash k = k.xh
    end

    let key (st : Network.state) =
      let disc = pack_disc st.Network.locs st.Network.store in
      let zone = intern st.Network.zone in
      { xh = fnv (zone * 0x9e3779b1) disc; xdisc = disc; zone }

    (* a state's successors are all generated (and extrapolated)
       before the first is processed, so [extrapolations] counts the
       whole of an expansion a target cuts short *)
    let successors st emit =
      List.iter (fun (label, s) -> emit label s) (successors_counted ~extra net st)

    let keep = Fun.id

    let is_target (st : Network.state) =
      target ~locs:st.Network.locs ~store:st.Network.store
  end) in
  let coverage =
    if not inclusion then None
    else
      Some
        {
          Space.canon = Fun.id;
          (* grouped by the discrete part: locations, then store *)
          group_hash =
            (fun (st : Network.state) ->
              fnv 0 (pack_disc st.Network.locs st.Network.store));
          group_equal =
            (fun (a : Network.state) b ->
              array_eq a.Network.locs b.Network.locs
              && array_eq a.Network.store b.Network.store);
          covers =
            (fun (passed : Network.state) candidate ->
              Dbm.includes passed.Network.zone candidate.Network.zone);
        }
  in
  let r =
    Space.run ~exact:true ?coverage ~max_states ~max_states_check:`Insert
      ?deadline ~deadline_mask:255 ~target_check:`Insert ~initial_peak:1
      ~metrics_prefix:"ta.reach" initial
  in
  let s = r.Space.stats in
  if Obs.Trace_ctx.enabled () then begin
    Obs.Metric.count "ta.reach.dedup_hits" s.Search.dedup_hits;
    Obs.Metric.count "ta.reach.inclusion_pruned" s.Search.cover_hits;
    Obs.Metric.count "ta.reach.extrapolations" !extra
  end;
  let outcome =
    match r.Space.outcome with
    | Space.Found st -> Hit st
    | Space.Completed -> Unreachable
    | Space.Exhausted reason -> Exhausted reason
  in
  {
    outcome;
    stats =
      {
        states = s.Search.states;
        transitions = s.Search.transitions;
        elapsed = s.Search.elapsed;
        waiting_peak = s.Search.waiting_peak;
        inclusion_pruned = s.Search.cover_hits;
        dedup_hits = s.Search.dedup_hits;
        extrapolations = !extra;
      };
    trace =
      List.map (fun (label, state) -> { automaton = label; state }) r.Space.trace;
  }

let run ?(max_states = 2_000_000) ?deadline ?(inclusion = true) net target =
  if max_states <= 0 then invalid_arg "Reach.run: max_states";
  (match deadline with
   | Some d when d <= 0. -> invalid_arg "Reach.run: deadline"
   | _ -> ());
  Obs.Span.with_ "ta.reach" (fun () ->
      run_impl ~max_states ~deadline ~inclusion net target)

let reachable ?max_states ?deadline ?inclusion net target =
  match (run ?max_states ?deadline ?inclusion net target).outcome with
  | Hit _ -> true
  | Unreachable -> false
  | Exhausted reason ->
    failwith
      (Format.asprintf "Reach.reachable: undetermined — %a" pp_budget_reason
         reason)
