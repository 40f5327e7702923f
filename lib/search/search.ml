type budget_reason = Max_states of int | Deadline of float

type stats = {
  states : int;
  transitions : int;
  elapsed : float;
  waiting_peak : int;
  dedup_hits : int;
  cover_hits : int;
}

type 'state order = Bfs | Dfs | Priority of ('state -> int)

module type STATE_SPACE = sig
  type state
  type label

  module Key : Hashtbl.HashedType

  val key : state -> Key.t
  val successors : state -> (label * state) list
  val is_target : label option -> state -> bool
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
      let rec probe i =
        let hi = t.hashes.(i) in
        if hi < 0 then -1
        else if hi = h && t.equal t.keys.(i) k then i
        else probe ((i + 1) land mask)
      in
      probe (h land mask)
    end

  let rec empty_slot t i =
    if t.hashes.(i) < 0 then i
    else empty_slot t ((i + 1) land (Array.length t.hashes - 1))

  (* bind a key [find] just missed; keeps the load at most 1/2 *)
  let add t h k v =
    if 2 * (t.size + 1) > Array.length t.hashes then begin
      let hashes = t.hashes and keys = t.keys and vals = t.vals in
      let cap = Int.max 64 (2 * Array.length hashes) in
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

(* Minimal binary min-heap over (score, seq): FIFO among equal scores,
   so Priority degenerates to Bfs under a constant score. *)
module Heap = struct
  type t = {
    mutable a : (int * int * int) array;  (* score, seq, payload *)
    mutable n : int;
  }

  let create () = { a = Array.make 64 (0, 0, 0); n = 0 }
  let lt (s1, q1, _) (s2, q2, _) = s1 < s2 || (s1 = s2 && q1 < q2)

  let push t cell =
    if t.n = Array.length t.a then begin
      let bigger = Array.make (2 * t.n) cell in
      Array.blit t.a 0 bigger 0 t.n;
      t.a <- bigger
    end;
    t.a.(t.n) <- cell;
    t.n <- t.n + 1;
    let i = ref (t.n - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      lt t.a.(!i) t.a.(p)
      && begin
           let tmp = t.a.(p) in
           t.a.(p) <- t.a.(!i);
           t.a.(!i) <- tmp;
           i := p;
           true
         end
    do
      ()
    done

  let pop t =
    let top = t.a.(0) in
    t.n <- t.n - 1;
    t.a.(0) <- t.a.(t.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < t.n && lt t.a.(l) t.a.(!m) then m := l;
      if r < t.n && lt t.a.(r) t.a.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        let tmp = t.a.(!m) in
        t.a.(!m) <- t.a.(!i);
        t.a.(!i) <- tmp;
        i := !m
      end
    done;
    let _, _, payload = top in
    payload
end

module Make (S : STATE_SPACE) = struct
  type coverage =
    | Coverage : {
        split : S.state -> 'ck * 'abs;
        ck_equal : 'ck -> 'ck -> bool;
        ck_hash : 'ck -> int;
        covers : 'abs -> 'abs -> bool;
      }
        -> coverage

  type outcome =
    | Found of S.state
    | Completed
    | Exhausted of budget_reason

  type result = {
    outcome : outcome;
    stats : stats;
    trace : (S.label * S.state) list;
  }

  type frontier =
    | Fifo of int ref
        (* every stored state is pushed as it is stored (a stored
           target ends the search), so the FIFO queue is exactly the ids
           [next, nstored) *)
    | Stack of int list ref
    | H of Heap.t * (S.state -> int)

  let run ?(order = Bfs) ?pool ?(exact = true) ?coverage ?max_states
      ?(max_states_check = `Insert) ?deadline ?(deadline_mask = 255)
      ?(target_check = `Insert) ?on_edge ?on_insert ?(initial_peak = 0)
      ?metrics_prefix ?(heartbeat = 1024) initial =
    let t0 = Obs.Clock.now () in
    (* dense state store: insertion order assigns ids; the parent table
       (parent id, -1 for the initial state, and the label of the step
       in) and the frontier hold ids, never whole structural states.
       The label array is created by the first labelled step. *)
    let store = ref (Array.make 1024 initial) in
    let parent = ref (Array.make 1024 (-1)) in
    let labels = ref [||] in
    let nstored = ref 0 in
    let grow a fill =
      let bigger = Array.make (2 * !nstored) fill in
      Array.blit a 0 bigger 0 !nstored;
      bigger
    in
    let add_state st =
      if !nstored = Array.length !store then begin
        store := grow !store initial;
        parent := grow !parent (-1);
        if Array.length !labels > 0 then labels := grow !labels !labels.(0)
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
       antichain; a query that misses both inserts into both *)
    let xt =
      if exact then Some (Oa.create ~equal:S.Key.equal ~hash:S.Key.hash)
      else None
    in
    let dedup_hits = ref 0 and cover_hits = ref 0 in
    let cover_seen =
      Option.map
        (fun (Coverage c) ->
          let tbl = Oa.create ~equal:c.ck_equal ~hash:c.ck_hash in
          fun st ->
            let k, abs = c.split st in
            let h = Oa.hash tbl k in
            let i = Oa.find tbl h k in
            if i < 0 then begin
              Oa.add tbl h k [ abs ];
              false
            end
            else begin
              let chain = tbl.Oa.vals.(i) in
              any_covers c.covers abs chain
              || begin
                   tbl.Oa.vals.(i) <- abs :: drop_covered c.covers abs chain;
                   false
                 end
            end)
        coverage
    in
    let covered st =
      match cover_seen with
      | Some f when f st ->
        incr cover_hits;
        true
      | Some _ | None -> false
    in
    let seen st =
      match xt with
      | Some xt ->
        let k = S.key st in
        let h = Oa.hash xt k in
        if Oa.find xt h k >= 0 then begin
          incr dedup_hits;
          true
        end
        else
          covered st
          || begin
               Oa.add xt h k ();
               false
             end
      | None -> covered st
    in
    let frontier =
      match order with
      | Bfs -> Fifo (ref 0)
      | Dfs -> Stack (ref [])
      | Priority score -> H (Heap.create (), score)
    in
    let seq = ref 0 in
    let fpush id st =
      match frontier with
      | Fifo _ -> ()
      | Stack s -> s := id :: !s
      | H (h, score) ->
        incr seq;
        Heap.push h (score st, !seq, id)
    in
    let fpop () =
      match frontier with
      | Fifo next ->
        incr next;
        !next - 1
      | Stack s -> (
        match !s with
        | id :: rest ->
          s := rest;
          id
        | [] -> assert false)
      | H (h, _) -> Heap.pop h
    in
    let fempty () =
      match frontier with
      | Fifo next -> !next >= !nstored
      | Stack s -> !s = []
      | H (h, _) -> h.Heap.n = 0
    in
    (* [qlen] tracks the frontier depth a sequential run would see —
       in the batched loop the batch's still-unmerged pops count as
       popped, so waiting_peak agrees with jobs = 1 byte for byte *)
    let qlen = ref 0 and waiting_peak = ref initial_peak in
    let states = ref 1 and transitions = ref 0 in
    let found = ref (-1) in
    let exhausted = ref None in
    let pops = ref 0 in
    let engine = match metrics_prefix with Some p -> p | None -> "search" in
    (* A heartbeat fires every [heartbeat] pops.  Its counter fields
       replay the sequential pop sequence (see the determinism note in
       the mli), so the event multiset is identical at any pool size
       once the timing fields are masked. *)
    let heartbeat_tick () =
      if !pops mod heartbeat = 0 && Obs.Event.enabled () then begin
        let dt = Obs.Clock.now () -. t0 in
        Obs.Event.emit "search.heartbeat"
          [
            ("engine", Obs.Event.Str engine);
            ("states", Obs.Event.Int !states);
            ("transitions", Obs.Event.Int !transitions);
            ("frontier", Obs.Event.Int !qlen);
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
    let process parent_id (label, succ) =
      incr transitions;
      (match on_edge with Some f -> f label succ | None -> ());
      if target_check = `Generate && S.is_target (Some label) succ then begin
        let id = add_state succ in
        link id parent_id label;
        found := id;
        raise_notrace Exit
      end;
      if not (seen succ) then begin
        let id = add_state succ in
        incr states;
        link id parent_id label;
        (match on_insert with Some f -> f succ | None -> ());
        if target_check = `Insert && S.is_target (Some label) succ then begin
          found := id;
          raise_notrace Exit
        end;
        (match (max_states, max_states_check) with
         | Some cap, `Insert when !states >= cap ->
           exhausted := Some (Max_states cap);
           raise_notrace Exit
         | _ -> ());
        fpush id succ;
        incr qlen;
        if !qlen > !waiting_peak then waiting_peak := !qlen
      end
    in
    let rec expand parent_id = function
      | [] -> ()
      | edge :: rest ->
        process parent_id edge;
        expand parent_id rest
    in
    (* seed with the initial state (id 0) *)
    let id0 = add_state initial in
    ignore (seen initial);
    (match on_insert with Some f -> f initial | None -> ());
    fpush id0 initial;
    qlen := 1;
    if target_check = `Insert && S.is_target None initial then found := id0;
    let jobs = match pool with Some p -> Par.Pool.jobs p | None -> 1 in
    let batched = match order with Bfs -> jobs > 1 | Dfs | Priority _ -> false in
    (try
       if not batched then
         while (not (fempty ())) && !found < 0 do
           incr pops;
           heartbeat_tick ();
           if pop_budget () then raise_notrace Exit;
           let id = fpop () in
           decr qlen;
           expand id (S.successors (state_of id))
         done
       else begin
         let pool = Option.get pool in
         let next =
           match frontier with Fifo next -> next | Stack _ | H _ -> assert false
         in
         while !next < !nstored do
           let k = Int.min (!nstored - !next) (jobs * 4) in
           let batch = Array.init k (fun i -> !next + i) in
           next := !next + k;
           let expanded =
             Par.Pool.map_array pool (fun id -> S.successors (state_of id)) batch
           in
           Array.iteri
             (fun i succs ->
               incr pops;
               heartbeat_tick ();
               if pop_budget () then raise_notrace Exit;
               decr qlen;
               expand batch.(i) succs)
             expanded
         done
       end
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
