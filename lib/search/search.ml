type budget_reason = Max_states of int | Deadline of float

type stats = {
  states : int;
  transitions : int;
  elapsed : float;
  waiting_peak : int;
  dedup_hits : int;
  cover_hits : int;
}

type order = Bfs | Dfs

module type STATE_SPACE = sig
  type state
  type label

  module Key : Hashtbl.HashedType

  val key : state -> Key.t
  val successors : state -> (label -> state -> unit) -> unit
  val keep : state -> state
  val is_target : state -> bool
end

(* Open addressing with linear probing over flat arrays, with equality
   and hash supplied at run time so the coverage antichain can be keyed
   by an existentially-typed group key.  [hashes.(i)] is the
   non-negative hash of slot [i]'s key, or -1 when the slot is empty.
   The key and value arrays are created by the first insertion, whose
   binding fills them: no dummy value of an abstract type is needed.
   Callers hash once and pass the hash to [find] and [add]. *)
module Oa = struct
  type ('k, 'v) t = {
    equal : 'k -> 'k -> bool;
    hash : 'k -> int;
    mutable hashes : int array;
    mutable keys : 'k array;
    mutable vals : 'v array;
    mutable size : int;
  }

  let create ~equal ~hash =
    { equal; hash; hashes = [||]; keys = [||]; vals = [||]; size = 0 }

  let hash t k = t.hash k land max_int

  (* the slot holding [k], or -1 *)
  let find t h k =
    if t.size = 0 then -1
    else begin
      let mask = Array.length t.hashes - 1 in
      let i = ref (h land mask) and slot = ref (-2) in
      while !slot = -2 do
        let hi = t.hashes.(!i) in
        if hi < 0 then slot := -1
        else if hi = h && t.equal t.keys.(!i) k then slot := !i
        else i := (!i + 1) land mask
      done;
      !slot
    end

  let rec empty_slot t i =
    if t.hashes.(i) < 0 then i
    else empty_slot t ((i + 1) land (Array.length t.hashes - 1))

  (* bind a key [find] just missed; keeps the load at most 1/2 *)
  let add t h k v =
    if 2 * (t.size + 1) > Array.length t.hashes then begin
      let hashes = t.hashes and keys = t.keys and vals = t.vals in
      let cap = Int.max 16 (2 * Array.length hashes) in
      t.hashes <- Array.make cap (-1);
      t.keys <- Array.make cap k;
      t.vals <- Array.make cap v;
      Array.iteri
        (fun i hi ->
          if hi >= 0 then begin
            let j = empty_slot t (hi land (cap - 1)) in
            t.hashes.(j) <- hi;
            t.keys.(j) <- keys.(i);
            t.vals.(j) <- vals.(i)
          end)
        hashes
    end;
    let i = empty_slot t (h land (Array.length t.hashes - 1)) in
    t.hashes.(i) <- h;
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1
end

(* Antichain chain operations, closure-free on the hot path: does some
   stored element cover [abs], and the chain without the elements [abs]
   covers — the list itself when it keeps everything, so an insertion
   that drops nothing allocates one cell *)
let rec any_covers covers abs = function
  | [] -> false
  | e :: rest -> covers e abs || any_covers covers abs rest

let rec drop_covered covers abs = function
  | [] -> []
  | e :: rest as l ->
    let rest' = drop_covered covers abs rest in
    if covers abs e then rest' else if rest' == rest then l else e :: rest'

module Make (S : STATE_SPACE) = struct
  type coverage = {
    canon : S.state -> S.state;
    group_hash : S.state -> int;
    group_equal : S.state -> S.state -> bool;
    covers : S.state -> S.state -> bool;
  }

  type outcome =
    | Found of S.state
    | Completed
    | Exhausted of budget_reason

  type result = {
    outcome : outcome;
    stats : stats;
    trace : (S.label * S.state) list;
  }

  let run ?(order = Bfs) ?(exact = true) ?coverage ?max_states
      ?(max_states_check = `Insert) ?deadline ?(deadline_mask = 255)
      ?(target_check = `Insert) ?on_edge ?on_insert ?(initial_peak = 0)
      ?metrics_prefix initial =
    let t0 = Obs.Clock.now () in
    (* dense state store: insertion order assigns ids; the parent table
       (parent id, -1 for the initial state, and the label of the step
       in) and the frontier hold ids, never whole structural states.
       Everything starts small, since many runs store a few dozen
       states; the label array is created by the first labelled
       step. *)
    let cap0 = 64 in
    let store = ref (Array.make cap0 initial) in
    let parent = ref (Array.make cap0 (-1)) in
    let labels = ref [||] in
    let nstored = ref 0 in
    let grow a n fill =
      let bigger = Array.make (2 * n) fill in
      Array.blit a 0 bigger 0 n;
      bigger
    in
    let add_state st =
      if !nstored = Array.length !store then begin
        store := grow !store !nstored initial;
        parent := grow !parent !nstored (-1);
        if Array.length !labels > 0 then
          labels := grow !labels !nstored !labels.(0)
      end;
      !store.(!nstored) <- st;
      incr nstored;
      !nstored - 1
    in
    let link id pid label =
      if Array.length !labels = 0 then
        labels := Array.make (Array.length !store) label;
      !parent.(id) <- pid;
      !labels.(id) <- label
    in
    let state_of id = !store.(id) in
    (* dedup: exact table over the client key, then the coverage
       antichain.  A successor may be a buffer the client reuses, so a
       probe that misses both leaves its key, hash and antichain slot
       pending, and [store_fresh] keeps the state and inserts the kept
       copy into both. *)
    let key0 = S.key initial in
    let xt =
      if exact then Some (Oa.create ~equal:S.Key.equal ~hash:S.Key.hash)
      else None
    in
    let xkey = ref key0 and xhash = ref 0 in
    let ct =
      Option.map
        (fun c -> (c, Oa.create ~equal:c.group_equal ~hash:c.group_hash))
        coverage
    in
    let crep = ref initial and chash = ref 0 and cslot = ref (-1) in
    let dedup_hits = ref 0 and cover_hits = ref 0 in
    let seen st =
      (match xt with
       | Some xt ->
         let k = S.key st in
         let h = Oa.hash xt k in
         xkey := k;
         xhash := h;
         Oa.find xt h k >= 0 && (incr dedup_hits; true)
       | None -> false)
      ||
      match ct with
      | Some (c, tbl) ->
        let rep = c.canon st in
        let h = Oa.hash tbl rep in
        let i = Oa.find tbl h rep in
        crep := rep;
        chash := h;
        cslot := i;
        i >= 0
        && any_covers c.covers rep tbl.Oa.vals.(i)
        && (incr cover_hits; true)
      | None -> false
    in
    let store_fresh st kept =
      let id = add_state kept in
      (match xt with
       | Some xt ->
         Oa.add xt !xhash (if kept == st then !xkey else S.key kept) ()
       | None -> ());
      (match ct with
       | Some (c, tbl) ->
         let e = if !crep == st then kept else S.keep !crep in
         if !cslot < 0 then Oa.add tbl !chash e [ e ]
         else
           tbl.Oa.vals.(!cslot) <-
             e :: drop_covered c.covers e tbl.Oa.vals.(!cslot)
       | None -> ());
      id
    in
    (* the frontier holds ids.  Every state that survives dedup is
       stored and pushed at once (a stored target or a spent state cap
       ends the search), so the FIFO queue is exactly the ids
       [next, nstored) and needs no structure of its own; the LIFO one
       is an int array grown by doubling. *)
    let next = ref 0 in
    let stack = ref (match order with Bfs -> [||] | Dfs -> Array.make cap0 0) in
    let stacked = ref 0 in
    let push id =
      match order with
      | Bfs -> ()
      | Dfs ->
        if !stacked = Array.length !stack then
          stack := grow !stack !stacked 0;
        !stack.(!stacked) <- id;
        incr stacked
    in
    let pop () =
      match order with
      | Bfs ->
        incr next;
        !next - 1
      | Dfs ->
        decr stacked;
        !stack.(!stacked)
    in
    let waiting () =
      match order with Bfs -> !nstored - !next | Dfs -> !stacked
    in
    let waiting_peak = ref initial_peak in
    let states = ref 1 and transitions = ref 0 in
    let found = ref (-1) in
    let exhausted = ref None in
    let pops = ref 0 in
    let engine = match metrics_prefix with Some p -> p | None -> "search" in
    let heartbeat_tick () =
      if !pops mod 1024 = 0 && Obs.Event.enabled () then begin
        let dt = Obs.Clock.now () -. t0 in
        Obs.Event.emit "search.heartbeat"
          [
            ("engine", Obs.Event.Str engine);
            ("states", Obs.Event.Int !states);
            ("transitions", Obs.Event.Int !transitions);
            ("frontier", Obs.Event.Int (waiting ()));
            ("dedup_hits", Obs.Event.Int !dedup_hits);
            ("cover_hits", Obs.Event.Int !cover_hits);
            ( "states_per_sec",
              Obs.Event.Float
                (if dt > 0. then float_of_int !states /. dt else 0.) );
          ]
      end
    in
    let deadline_hit () =
      match deadline with
      | Some d
        when !pops land deadline_mask = 0 && Obs.Clock.now () -. t0 > d ->
        exhausted := Some (Deadline d);
        true
      | _ -> false
    in
    let pop_budget () =
      (match (max_states, max_states_check) with
       | Some cap, `Pop when !states >= cap ->
         exhausted := Some (Max_states cap);
         true
       | _ -> false)
      || deadline_hit ()
    in
    (* the id being expanded: one [emit] closure serves the whole run *)
    let current = ref 0 in
    let emit label succ =
      incr transitions;
      (match on_edge with Some f -> f label succ | None -> ());
      if target_check = `Generate && S.is_target succ then begin
        let id = add_state (S.keep succ) in
        link id !current label;
        found := id;
        raise_notrace Exit
      end;
      if not (seen succ) then begin
        let id = store_fresh succ (S.keep succ) in
        incr states;
        link id !current label;
        (match on_insert with Some f -> f (state_of id) | None -> ());
        if target_check = `Insert && S.is_target (state_of id) then begin
          found := id;
          raise_notrace Exit
        end;
        (match (max_states, max_states_check) with
         | Some cap, `Insert when !states >= cap ->
           exhausted := Some (Max_states cap);
           raise_notrace Exit
         | _ -> ());
        push id;
        if waiting () > !waiting_peak then waiting_peak := waiting ()
      end
    in
    (* seed with the initial state (id 0) *)
    ignore (seen initial);
    let id0 = store_fresh initial initial in
    (match on_insert with Some f -> f initial | None -> ());
    push id0;
    if target_check = `Insert && S.is_target initial then found := id0;
    (try
       while waiting () > 0 && !found < 0 do
         incr pops;
         heartbeat_tick ();
         if pop_budget () then raise_notrace Exit;
         let id = pop () in
         current := id;
         S.successors (state_of id) emit
       done
     with Exit -> ());
    let elapsed = Obs.Clock.now () -. t0 in
    (match metrics_prefix with
     | Some p when Obs.Trace_ctx.enabled () ->
       Obs.Metric.count (p ^ ".states") !states;
       Obs.Metric.count (p ^ ".transitions") !transitions;
       Obs.Metric.max_gauge (p ^ ".waiting_peak") (float_of_int !waiting_peak);
       if elapsed > 0. then
         Obs.Metric.max_gauge (p ^ ".states_per_sec")
           (float_of_int !states /. elapsed)
     | Some _ | None -> ());
    let trace =
      if !found < 0 then []
      else begin
        let rec walk id acc =
          let pid = !parent.(id) in
          if pid < 0 then acc else walk pid ((!labels.(id), state_of id) :: acc)
        in
        walk !found []
      end
    in
    let outcome =
      if !found >= 0 then Found (state_of !found)
      else match !exhausted with Some r -> Exhausted r | None -> Completed
    in
    (* Always emitted (not pop-gated) so even a tiny run leaves at
       least one event in the stream. *)
    Obs.Event.emit "search.done"
      [
        ("engine", Obs.Event.Str engine);
        ( "outcome",
          Obs.Event.Str
            (match outcome with
             | Found _ -> "found"
             | Completed -> "completed"
             | Exhausted (Max_states _) -> "max_states"
             | Exhausted (Deadline _) -> "deadline") );
        ("states", Obs.Event.Int !states);
        ("transitions", Obs.Event.Int !transitions);
        ("dedup_hits", Obs.Event.Int !dedup_hits);
        ("cover_hits", Obs.Event.Int !cover_hits);
        ("elapsed_s", Obs.Event.Float elapsed);
      ];
    {
      outcome;
      stats =
        {
          states = !states;
          transitions = !transitions;
          elapsed;
          waiting_peak = !waiting_peak;
          dedup_hits = !dedup_hits;
          cover_hits = !cover_hits;
        };
      trace;
    }
end

(* sibling module re-exported through the library's root: the engine
   itself is symmetry-agnostic (clients canonicalise in [key]), but the
   orbit machinery belongs with the search layer *)
module Symmetry = Symmetry
