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
   coming tick ({!Sched.Slot_state.disturbable}), in every
   service-relevant arrival order.  The EDF insertion is deterministic
   except among simultaneous arrivals with equal T*_w, so only
   permutations within equal-T*_w groups are enumerated. *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
    let tails = subsets rest in
    tails @ List.map (fun t -> x :: t) tails

(* arrival orders of [subset] that can produce distinct buffers *)
let arrival_orders (specs : Sched.Appspec.t array) subset =
  let groups = Hashtbl.create 4 in
  List.iter
    (fun id ->
      let key = specs.(id).Sched.Appspec.t_w_max in
      Hashtbl.replace groups key
        (id :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
    subset;
  let keys =
    List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) groups [])
  in
  let per_group = List.map (fun k -> permutations (Hashtbl.find groups k)) keys in
  List.fold_left
    (fun acc perms ->
      List.concat_map (fun prefix -> List.map (fun p -> prefix @ p) perms) acc)
    [ [] ] per_group

(* ------------------------------------------------------------------ *)
(* Generic explorer over packed states ({!Sched.Slot_state.Packed}): a
   state is a slot state plus, in bounded mode, the per-application
   remaining disturbance budgets, encoded as one string.  The engine
   stores, deduplicates and subsumes encodings; a popped state is
   decoded once and {!Sched.Slot_state.tick} runs on it for each move.
   With [subsume] on, states are pruned by the quiet-age antichain: a
   state whose [Safe] applications are all at least as old in some
   explored state (with an otherwise identical configuration) admits a
   subset of its behaviours and need not be expanded.  The pruning is
   exact for error-reachability. *)

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

(* With quotienting on, a grant seen for one orbit member stands for the
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

(* disturbable sets, as ascending id lists *)
module Ids = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash = List.fold_left (fun h i -> (h * 31) + i + 1) 0
end)

let explore_impl ~order ~policy ~subsume ~symmetry ~instances ~deadline
    ~max_states specs =
  let n = Array.length specs in
  let max_wait = Array.make n (-1) in
  let bounded = instances <> None in
  let codec = Packed.layout ?instances specs in
  let budgets s =
    if bounded then Array.init n (Packed.budget codec s) else [||]
  in
  (* the move lists, memoised per disturbable set; each run owns its
     memo, so runs on different domains share nothing *)
  let memo = Ids.create 64 in
  let moves_of st budget =
    let available = Sched.Slot_state.disturbable specs st in
    let available =
      if bounded then List.filter (fun id -> budget.(id) > 0) available
      else available
    in
    match Ids.find_opt memo available with
    | Some moves -> moves
    | None ->
      let moves =
        Array.of_list (List.concat_map (arrival_orders specs) (subsets available))
      in
      Ids.add memo available moves;
      moves
  in
  (* A transition label is one int: the move's index in its state's
     move list, the single grant a tick can make (0 for none, else
     1 + id * wspan + wait) and, in bit 0, whether the tick produced an
     error.  The engine's [on_edge] reads the grant off the label. *)
  let wspan =
    1 + Array.fold_left (fun m s -> Int.max m s.Sched.Appspec.t_w_max) 0 specs
  in
  let gspan = 1 + (n * wspan) in
  let label_of k (out : Sched.Slot_state.outcome) =
    let grant =
      match out.Sched.Slot_state.granted with
      | [] -> 0
      | [ (id, wt) ] -> 1 + (id * wspan) + wt
      | _ :: _ :: _ -> invalid_arg "Dverify: more than one grant in a tick"
    in
    (((k * gspan) + grant) lsl 1)
    lor match out.Sched.Slot_state.new_errors with [] -> 0 | _ :: _ -> 1
  in
  let move_of label = (label lsr 1) / gspan in
  let grant_of label = (label lsr 1) mod gspan in
  (* in bounded mode, an application with no budget left can never be
     disturbed again, so its quiet countdown is behaviourally inert *)
  let normalize st budget =
    if bounded then
      Sched.Slot_state.force_steady st ~keep_quiet:(fun i -> budget.(i) > 0)
    else st
  in
  let encode st budget =
    if bounded then Packed.encode codec ~budget st else Packed.encode codec st
  in
  let initial =
    encode (Sched.Slot_state.initial specs)
      (match instances with Some k -> Array.make n k | None -> [||])
  in
  (* the canonical relabelling: within each orbit of identical-parameter
     applications, the per-application fields sorted by phase (real
     quiet age included), disturbance budget and position in the shared
     EDF buffer — the owner is the one running member.  Both dedup
     channels call this once per generated successor. *)
  let canon =
    match symmetry with
    | None -> fun s -> s
    | Some part ->
      let orbits =
        Array.to_list (Search.Symmetry.orbits part)
        |> List.filter_map (function
             | [] | [ _ ] -> None
             | members -> Some (Array.of_list members))
      in
      fun s ->
        let c = Packed.sort_apps codec orbits s in
        if c != s then Search.Symmetry.note_collapsed ();
        c
  in
  let module Space = Search.Make (struct
    type state = string
    type label = int

    module Key = struct
      type t = string

      let equal = String.equal
      let hash (k : t) = Hashtbl.hash k
    end

    (* the exact table only dedups in [`Bfs] mode; under subsumption
       the engine runs non-exact and the coverage split below carries
       the quotient *)
    let key = canon

    let successors s =
      let st = Packed.decode codec s in
      let budget = budgets s in
      let moves = moves_of st budget in
      let acc = ref [] in
      for k = Array.length moves - 1 downto 0 do
        let disturbed = moves.(k) in
        let st', out = Sched.Slot_state.tick ~policy specs st ~disturbed in
        let budget' =
          if not bounded then budget
          else begin
            let b = Array.copy budget in
            List.iter (fun id -> b.(id) <- b.(id) - 1) disturbed;
            b
          end
        in
        acc := (label_of k out, encode (normalize st' budget') budget') :: !acc
      done;
      !acc

    let is_target label _ =
      match label with Some l -> l land 1 = 1 | None -> false
  end) in
  let coverage =
    if not subsume then None
    else
      Some
        (Space.Coverage
           {
             split = (fun s -> Packed.split_ages codec (canon s));
             ck_equal = String.equal;
             ck_hash = Hashtbl.hash;
             (* [explored] admits every behaviour of [ages]: pointwise
                at least as close to becoming disturbable again (equal
                keys have their [Safe] applications in the same
                places) *)
             covers =
               (fun explored ages ->
                 let ok = ref true and k = ref 0 in
                 while !ok && !k < Array.length ages do
                   if explored.(!k) < ages.(!k) then ok := false;
                   incr k
                 done;
                 !ok);
           })
  in
  let r =
    Space.run ~order ~exact:(not subsume) ?coverage ?max_states
      ~max_states_check:`Pop ?deadline ~deadline_mask:1023
      ~target_check:`Generate
      ~on_edge:(fun label _ ->
        let g = grant_of label in
        if g > 0 then begin
          let id = (g - 1) / wspan and wt = (g - 1) mod wspan in
          if wt > max_wait.(id) then max_wait.(id) <- wt
        end)
      ~initial_peak:0 ~metrics_prefix:"dverify" initial
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
            let st = Packed.decode codec prev in
            let disturbed = (moves_of st (budgets prev)).(move_of label) in
            ((disturbed, Packed.decode codec s) :: acc, s))
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
    Obs.Metric.count "dverify.prune_hits"
      (s.Search.dedup_hits + s.Search.cover_hits);
    match verdict with
    | Undetermined _ -> Obs.Metric.count "dverify.undetermined" 1
    | Safe | Unsafe _ -> ()
  end;
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

let explore ?(order = `Bfs) ~policy ~subsume ~symmetry ~instances
    ?deadline ?max_states specs =
  (match deadline with
   | Some d when d <= 0. -> invalid_arg "Dverify: deadline must be positive"
   | _ -> ());
  (match max_states with
   | Some n when n < 1 -> invalid_arg "Dverify: max_states must be positive"
   | _ -> ());
  let order = match order with `Bfs -> Search.Bfs | `Dfs -> Search.Dfs in
  let part =
    if not symmetry then None
    else
      let p = orbit_partition specs in
      if Search.Symmetry.nontrivial p then Some p else None
  in
  Obs.Span.with_ "dverify" (fun () ->
      let r =
        explore_impl ~order ~policy ~subsume ~symmetry:part ~instances
          ~deadline ~max_states specs
      in
      match (part, r.verdict) with
      | None, _ | Some _, Undetermined _ -> r
      | Some p, Safe ->
        orbit_max_wait p r.stats.max_wait;
        r
      | Some _, Unsafe _ ->
        (* a quotient counterexample is real but may be a permuted twin
           of the one the exact engine reports; re-run without the
           quotient so trace, stats and pretty-printed output stay
           byte-identical to the reference engine *)
        explore_impl ~order ~policy ~subsume ~symmetry:None ~instances
          ~deadline ~max_states specs)

let screen ~policy specs =
  match Sched.Prefilter.decide ~policy specs with
  | Sched.Prefilter.Inconclusive -> None
  | Sched.Prefilter.Analytic_safe ->
    Some
      {
        verdict = Safe;
        stats =
          {
            states = 0;
            transitions = 0;
            elapsed = 0.;
            max_wait = Array.make (Array.length specs) (-1);
          };
      }
  | Sched.Prefilter.Analytic_unsafe w ->
    Some
      {
        verdict =
          Unsafe
            { steps = w.Sched.Prefilter.steps; failing = w.Sched.Prefilter.failing };
        stats =
          {
            states = 0;
            transitions = 0;
            elapsed = 0.;
            max_wait = Array.make (Array.length specs) (-1);
          };
      }

let verify ?order ?(policy = Sched.Slot_state.Eager_preempt)
    ?(mode = `Subsumption) ?(prefilter = false) ?(symmetry = false) ?deadline
    ?max_states specs =
  let exact () =
    match mode with
    | `Bfs ->
      explore ?order ~policy ~subsume:false ~symmetry ~instances:None
        ?deadline ?max_states specs
    | `Subsumption ->
      explore ?order ~policy ~subsume:true ~symmetry ~instances:None
        ?deadline ?max_states specs
  in
  if not prefilter then exact ()
  else match screen ~policy specs with Some r -> r | None -> exact ()

let verify_bounded ?order ?(policy = Sched.Slot_state.Eager_preempt)
    ?(symmetry = false) ?deadline ?max_states ~instances specs =
  if instances < 1 then invalid_arg "Dverify.verify_bounded: instances < 1";
  explore ?order ~policy ~subsume:true ~symmetry
    ~instances:(Some instances) ?deadline ?max_states specs

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
