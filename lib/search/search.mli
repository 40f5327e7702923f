(** A generic explicit-state search engine.

    The repo's three explorers — zone-graph reachability
    ({!Ta.Reach}), the discrete adversary search ({!Core.Dverify}) and
    the concrete enumeration oracle ({!Ta.Concrete.enumerate}) — are
    instantiations of this one engine.  It owns frontier management
    (BFS queue / DFS stack), exact and antichain (coverage/subsumption)
    deduplication over a typed key with explicit [equal]/[hash],
    unified budgets (state cap and wall-clock deadline, reported as one
    {!Exhausted} outcome), unified {!stats}, and parent-table trace
    reconstruction keyed by dense state ids.  A run is one sequential
    loop and shares no state with any other run, so independent
    searches may run on different domains at once. *)

type budget_reason =
  | Max_states of int  (** the state cap that was hit *)
  | Deadline of float  (** the wall-clock budget, seconds *)

type stats = {
  states : int;  (** distinct states inserted, including the initial *)
  transitions : int;  (** successors generated (pre-dedup) *)
  elapsed : float;  (** wall-clock seconds *)
  waiting_peak : int;  (** deepest the frontier ever got *)
  dedup_hits : int;  (** successors equal (by key) to a stored state *)
  cover_hits : int;  (** successors subsumed by the coverage antichain *)
}

type order =
  | Bfs  (** FIFO *)
  | Dfs  (** LIFO; successors of a state are popped most-recent-first *)

(** What a client must provide: states, labelled successor generation,
    a typed dedup key with explicit equality and hashing (no
    polymorphic magic), and the target predicate. *)
module type STATE_SPACE = sig
  type state
  type label

  module Key : Hashtbl.HashedType

  val key : state -> Key.t

  val successors : state -> (label -> state -> unit) -> unit
  (** [successors st emit] calls [emit label succ] once per successor,
      in order.  [succ] may be a buffer the client overwrites after
      [emit] returns: the engine {!keep}s every state it stores, and
      reads no other successor after [emit] returns. *)

  val keep : state -> state
  (** A copy of a successor that outlives the next one — the identity
      for a client whose successors are fresh values. *)

  val is_target : state -> bool
end

module Make (S : STATE_SPACE) : sig
  (** Antichain subsumption over representatives: [canon] maps a
      candidate to the state the antichain compares — the identity, or
      a canonical relabelling for a client that quotients its space; it
      may return the candidate itself or a client buffer.
      Representatives are grouped by [group_hash]/[group_equal] and,
      within a group, a candidate covered by a stored one is pruned
      ([covers stored candidate]); on insertion, stored representatives
      covered by the newcomer are dropped.  A probe allocates nothing
      of its own: the antichain keeps a representative (sharing the
      stored copy of the state when [canon] returned the state itself)
      only on insertion. *)
  type coverage = {
    canon : S.state -> S.state;
    group_hash : S.state -> int;
    group_equal : S.state -> S.state -> bool;
    covers : S.state -> S.state -> bool;
  }

  type outcome =
    | Found of S.state  (** the target was reached; witness attached *)
    | Completed  (** the space was exhausted without hitting it *)
    | Exhausted of budget_reason
        (** a budget ran out first: genuinely undetermined *)

  type result = {
    outcome : outcome;
    stats : stats;
    trace : (S.label * S.state) list;
        (** chronological path to the found state (empty otherwise):
            each entry is the labelled step into that state *)
  }

  val run :
    ?order:order ->
    ?exact:bool ->
    ?coverage:coverage ->
    ?max_states:int ->
    ?max_states_check:[ `Insert | `Pop ] ->
    ?deadline:float ->
    ?deadline_mask:int ->
    ?target_check:[ `Insert | `Generate ] ->
    ?on_edge:(S.label -> S.state -> unit) ->
    ?on_insert:(S.state -> unit) ->
    ?initial_peak:int ->
    ?metrics_prefix:string ->
    S.state ->
    result
  (** Explore from the initial state until a target is found, the
      space is exhausted, or a budget runs out.

      Deduplication: [exact] (default [true]) keeps a hash table over
      [S.key]; [coverage] adds antichain subsumption checked after an
      exact miss.  With both off every successor is treated as fresh —
      only meaningful for finite acyclic spaces.

      Budgets: [max_states] caps inserted states, checked either right
      after each insertion ([`Insert], the default — the expansion
      stops mid-state) or once per pop ([`Pop]).  [deadline] is
      wall-clock seconds, amortised: checked only on pops whose count
      masks to zero against [deadline_mask] (default [255]) so the
      syscall cannot dominate cheap expansions.

      Targets: with [`Insert] (default) only deduplicated, stored
      states are tested, including the initial state; with
      [`Generate] every generated successor is tested before dedup and
      the hit state is recorded but not counted — the regime of a
      client whose error states must never enter the visited set.

      [on_edge] runs for every generated successor (as emitted, so it
      must not retain it), [on_insert] for every stored state
      (including the initial, as kept), both in generation order.  The
      initial state is stored as given.  [initial_peak] (default [0]) seeds
      the frontier-depth statistic for clients that count the initial
      state.  [metrics_prefix] emits [<p>.states], [<p>.transitions],
      [<p>.waiting_peak] and [<p>.states_per_sec] through {!Obs} when
      tracing is enabled — the shared metric names live here, clients
      add only their engine-specific counters.

      With the {!Obs.Event} stream enabled, the run emits a
      ["search.heartbeat"] event every 1024 pops
      carrying live progress — states, transitions, frontier depth,
      dedup/coverage hit counts and the running states-per-second —
      and one ["search.done"] event with the outcome. *)
end

module Symmetry : module type of Symmetry
(** Orbit partitions for clients that quotient their state space by
    component permutations.  The engine is untouched: a client applies
    its canonical relabelling inside its own [key] and coverage
    [split]. *)
