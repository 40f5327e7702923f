type reason = Deadline of float | State_budget of int

type verdict = Safe | Unsafe of counterexample | Undetermined of reason

and counterexample = {
  steps : (int list * Sched.Slot_state.t) list;
  failing : int list;
}

let pp_reason ppf = function
  | Deadline d -> Format.fprintf ppf "wall-clock deadline (%.3fs) exceeded" d
  | State_budget n -> Format.fprintf ppf "state budget (%d) exhausted" n

type stats = {
  states : int;
  transitions : int;
  elapsed : float;
  max_wait : int array;
}

type result = { verdict : verdict; stats : stats }

(* ------------------------------------------------------------------ *)
(* Adversary moves: all subsets of the applications disturbable at the
   coming tick ({!Sched.Slot_state.disturbable_mask}), in every
   service-relevant arrival order.  The EDF insertion is deterministic
   except among simultaneous arrivals with equal T*_w, so only
   permutations within equal-T*_w groups are enumerated.

   The order is part of the engine's result (a label is a move's index
   and the depth-first search pushes moves in index order): subsets in
   the order of [subsets (x :: r) = subsets r @ map (x ::) (subsets r)]
   over the ascending ids, and within a subset the product of its
   equal-T*_w groups (ascending T*_w, the first group varying slowest),
   each group's members (descending ids) permuted in lexicographic order
   of positions. *)
let moves_of_set (specs : Sched.Appspec.t array) available =
  let k = Array.length available in
  let moves = ref [] in
  let buf = Array.make k 0 in
  for c = 0 to (1 lsl k) - 1 do
    (* element [j] is in subset [c] when bit [k - 1 - j] is set *)
    let subset =
      List.filter
        (fun j -> c land (1 lsl (k - 1 - j)) <> 0)
        (List.init k Fun.id)
      |> List.map (fun j -> available.(j))
    in
    let t_w id = specs.(id).Sched.Appspec.t_w_max in
    let groups =
      List.sort_uniq Int.compare (List.map t_w subset)
      |> List.map (fun key ->
             Array.of_list (List.rev (List.filter (fun id -> t_w id = key) subset)))
      |> Array.of_list
    in
    let rec product gi base =
      if gi = Array.length groups then moves := Array.sub buf 0 base :: !moves
      else begin
        let g = groups.(gi) in
        let m = Array.length g in
        let used = Array.make m false in
        let rec permute depth =
          if depth = m then product (gi + 1) (base + m)
          else
            for i = 0 to m - 1 do
              if not used.(i) then begin
                used.(i) <- true;
                buf.(base + depth) <- g.(i);
                permute (depth + 1);
                used.(i) <- false
              end
            done
        in
        permute 0
      end
    in
    product 0 0
  done;
  Array.of_list (List.rev !moves)

(* ------------------------------------------------------------------ *)
(* Explorer over packed states ({!Sched.Slot_state.Packed}): a state is
   a slot state plus, in bounded mode, the per-application remaining
   disturbance budgets, encoded as an int array.  The engine stores and
   compares encodings.  Expanding one decodes it into the run's working
   form once per move, ticks it in place and encodes the successor into
   the run's successor buffer; the search copies that buffer only when
   it keeps the state.

   Two searches share it.  The engine is depth-first and prunes by the
   quiet-age antichain: a state whose [Safe] applications are all at
   least as old in some explored state (with an otherwise identical
   configuration) admits a subset of its behaviours and need not be
   expanded.  The pruning is exact for error-reachability.  The
   reference is breadth-first with exact dedup only, so its first
   counterexample is a shortest one. *)

(* Interchangeable applications: identical timing parameters mean the
   transition relation commutes with any permutation inside the orbit
   (names never influence scheduling, and every arrival order is
   enumerated), so states differing only by such a permutation reach an
   error iff their representative does. *)
let orbit_partition (specs : Sched.Appspec.t array) =
  let same i j =
    let a = specs.(i) and b = specs.(j) in
    a.Sched.Appspec.t_w_max = b.Sched.Appspec.t_w_max
    && a.Sched.Appspec.t_dw_min = b.Sched.Appspec.t_dw_min
    && a.Sched.Appspec.t_dw_max = b.Sched.Appspec.t_dw_max
    && a.Sched.Appspec.r = b.Sched.Appspec.r
  in
  Search.Symmetry.partition ~n:(Array.length specs) ~same

(* Under the quotient, a grant seen for one orbit member stands for the
   permuted grants of every member, so the exact per-application worst
   case is the orbit maximum (constant across the orbit by symmetry). *)
let orbit_max_wait part max_wait =
  Array.iter
    (function
      | [] | [ _ ] -> ()
      | members ->
        let m =
          List.fold_left (fun acc i -> Int.max acc max_wait.(i)) (-1) members
        in
        List.iter (fun i -> max_wait.(i) <- m) members)
    (Search.Symmetry.orbits part)

module Packed = Sched.Slot_state.Packed

let explore ~reference ~policy ~instances ~deadline ~max_states specs =
  let n = Array.length specs in
  (* the orbits the engine canonicalises by; the reference does not
     quotient, and a group with no two identical applications has
     nothing to quotient *)
  let quotient =
    if reference then None
    else
      let p = orbit_partition specs in
      if Search.Symmetry.nontrivial p then Some p else None
  in
  let max_wait = Array.make n (-1) in
  let codec = Packed.layout ?instances specs in
  (* per-run scratch, so runs on different domains share nothing: the
     working form every move is ticked in, and the buffers a successor
     and its canonical relabelling are encoded into *)
  let w = Packed.work codec in
  let succ = Array.make (Packed.length codec) 0 in
  let canon_buf = Array.make (Packed.length codec) 0 in
  (* the moves of every disturbable set, memoised by its bit set (the
     memo is created at the first expansion); each move lists the
     disturbed ids in arrival order *)
  let memo = ref [||] in
  let moves_of mask =
    if Array.length !memo = 0 then memo := Array.make (1 lsl n) [||];
    let moves = !memo.(mask) in
    if Array.length moves > 0 then moves
    else begin
      let available =
        List.filter (fun id -> mask land (1 lsl id) <> 0) (List.init n Fun.id)
      in
      let moves = moves_of_set specs (Array.of_list available) in
      !memo.(mask) <- moves;
      moves
    end
  in
  (* A transition label is one int: the move's index in its state's
     move list, above the single grant a tick can make
     ({!Sched.Slot_state.grant}: 0 for none, else 1 + id + n * wait) in
     the low [gbits] bits.  The engine's [on_edge] reads the grant off
     the label. *)
  let wmax =
    Array.fold_left (fun m s -> Int.max m s.Sched.Appspec.t_w_max) 0 specs
  in
  let gbits =
    let rec go b = if (n * (wmax + 1)) lsr b = 0 then b else go (b + 1) in
    go 0
  in
  let move_of label = label lsr gbits in
  let initial = Array.make (Packed.length codec) 0 in
  Packed.write codec w initial;
  let module Space = Search.Make (struct
    type state = int array
    type label = int

    module Key = struct
      type t = int array

      let equal (a : t) b = a = b
      let hash (k : t) = Hashtbl.hash k
    end

    (* only the reference dedups exactly, and it does not quotient *)
    let key = Fun.id

    let successors s emit =
      Packed.read codec s w;
      let moves = moves_of (Sched.Slot_state.disturbable_mask specs w) in
      for k = 0 to Array.length moves - 1 do
        if k > 0 then Packed.read codec s w;
        let events =
          Sched.Slot_state.tick_into ~policy ~slot_available:true specs w
            ~disturbed:moves.(k)
        in
        Packed.write codec w succ;
        emit ((k lsl gbits) lor Sched.Slot_state.grant events) succ
      done

    let keep = Array.copy

    (* stored states never hold an error (the search stops at the first
       successor that does), so a successor in error got it from the
       tick that produced it *)
    let is_target s = Packed.has_error codec s
  end) in
  let coverage =
    if reference then None
    else
      Some
        {
          (* the canonical relabelling: within each orbit of
             identical-parameter applications, the per-application
             fields sorted by phase (real quiet age included),
             disturbance budget and position in the shared EDF buffer —
             the owner is the one running member *)
          Space.canon =
            (match quotient with
             | None -> Fun.id
             | Some part ->
               let orbits =
                 Array.of_list
                   (List.filter_map
                      (function
                        | [] | [ _ ] -> None
                        | members -> Some (Array.of_list members))
                      (Array.to_list (Search.Symmetry.orbits part)))
               in
               fun s ->
                 let c = Packed.sort_apps codec orbits s ~into:canon_buf in
                 if c != s then Search.Symmetry.note_collapsed ();
                 c);
          group_hash = Packed.hash_quiet codec;
          group_equal = Packed.equal_quiet codec;
          (* [explored] admits every behaviour of [candidate]: pointwise
             at least as close to becoming disturbable again *)
          covers = Packed.older codec;
        }
  in
  let prefix = if reference then "dverify.reference" else "dverify" in
  let r =
    Space.run
      ~order:(if reference then Search.Bfs else Search.Dfs)
      ~exact:reference ?coverage ?max_states ~max_states_check:`Pop ?deadline
      ~deadline_mask:1023 ~target_check:`Generate
      ~on_edge:(fun label _ ->
        let g = label land ((1 lsl gbits) - 1) in
        if g > 0 then begin
          let id = (g - 1) mod n and wt = (g - 1) / n in
          if wt > max_wait.(id) then max_wait.(id) <- wt
        end)
      ~initial_peak:0 ~metrics_prefix:prefix initial
  in
  let s = r.Space.stats in
  let verdict =
    match r.Space.outcome with
    | Space.Completed -> Safe
    | Space.Found last ->
      (* replay the labels: each names its move in the predecessor's
         move list *)
      let steps, _ =
        List.fold_left
          (fun (acc, prev) (label, s) ->
            Packed.read codec prev w;
            let moves = moves_of (Sched.Slot_state.disturbable_mask specs w) in
            ((Array.to_list moves.(move_of label), Packed.decode codec s) :: acc, s))
          ([], initial) r.Space.trace
      in
      (* the search stops at the first tick that produces an error, so
         every application in error at the end failed at that tick *)
      let final = Packed.decode codec last in
      let failing =
        List.filter
          (fun i -> Sched.Slot_state.phase final i = Sched.Slot_state.Error)
          (List.init n Fun.id)
      in
      Unsafe { steps = List.rev steps; failing }
    | Space.Exhausted (Search.Max_states cap) -> Undetermined (State_budget cap)
    | Space.Exhausted (Search.Deadline d) -> Undetermined (Deadline d)
  in
  if Obs.Trace_ctx.enabled () then begin
    Obs.Metric.count (prefix ^ ".prune_hits")
      (s.Search.dedup_hits + s.Search.cover_hits);
    match verdict with
    | Undetermined _ -> Obs.Metric.count (prefix ^ ".undetermined") 1
    | Safe | Unsafe _ -> ()
  end;
  (match (quotient, verdict) with
   | Some part, Safe -> orbit_max_wait part max_wait
   | _ -> ());
  {
    verdict;
    stats =
      {
        states = s.Search.states;
        transitions = s.Search.transitions;
        elapsed = s.Search.elapsed;
        max_wait;
      };
  }

let run ~reference ~policy ~instances ?deadline ?max_states specs =
  (match deadline with
   | Some d when d <= 0. -> invalid_arg "Dverify: deadline must be positive"
   | _ -> ());
  (match max_states with
   | Some n when n < 1 -> invalid_arg "Dverify: max_states must be positive"
   | _ -> ());
  (match instances with
   | Some k when k < 1 -> invalid_arg "Dverify: instances < 1"
   | _ -> ());
  (* a disturbable set is an int bit set *)
  if Array.length specs > 62 then
    invalid_arg "Dverify: more than 62 applications in one group";
  Obs.Span.with_
    (if reference then "dverify.reference" else "dverify")
    (fun () -> explore ~reference ~policy ~instances ~deadline ~max_states specs)

let verify ?(policy = Sched.Slot_state.Eager_preempt) ?deadline ?max_states
    specs =
  run ~reference:false ~policy ~instances:None ?deadline ?max_states specs

let verify_bounded ?(policy = Sched.Slot_state.Eager_preempt) ?deadline
    ?max_states ~instances specs =
  run ~reference:false ~policy ~instances:(Some instances) ?deadline
    ?max_states specs

let reference ?(policy = Sched.Slot_state.Eager_preempt) ?instances ?deadline
    ?max_states specs =
  run ~reference:true ~policy ~instances ?deadline ?max_states specs

let pp_counterexample specs ppf (ce : counterexample) =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun k (disturbed, st) ->
      let arrivals =
        match disturbed with
        | [] -> ""
        | ids ->
          Printf.sprintf "  <- disturb %s"
            (String.concat ","
               (List.map (fun id -> specs.(id).Sched.Appspec.name) ids))
      in
      Format.fprintf ppf "t=%-3d %a%s@," k (Sched.Slot_state.pp specs) st
        arrivals)
    ce.steps;
  Format.fprintf ppf "miss: %s@]"
    (String.concat ", "
       (List.map (fun id -> specs.(id).Sched.Appspec.name) ce.failing))

let pp_verdict specs ppf = function
  | Safe -> Format.pp_print_string ppf "safe: no application can miss T*_w"
  | Unsafe { failing; steps } ->
    Format.fprintf ppf "unsafe: %s misses T*_w after %d samples"
      (String.concat ", "
         (List.map (fun id -> specs.(id).Sched.Appspec.name) failing))
      (List.length steps)
  | Undetermined reason ->
    Format.fprintf ppf "undetermined: %a" pp_reason reason
