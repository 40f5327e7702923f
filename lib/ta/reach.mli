(** Zone-graph reachability for networks of timed automata: the engine
    behind the paper's UPPAAL queries.

    The explorer maintains a passed/waiting structure keyed by
    (locations, store), with zone inclusion checking (a new symbolic
    state covered by an already-passed zone is pruned) and classic
    maximal-constant extrapolation, which together guarantee
    termination and exactness for location/store reachability. *)

type target = locs:int array -> store:Automaton.store -> bool

type stats = {
  states : int;  (** symbolic states expanded *)
  transitions : int;  (** discrete successors computed *)
  elapsed : float;
  waiting_peak : int;  (** deepest the waiting queue ever got *)
  inclusion_pruned : int;  (** successors covered by a larger passed zone *)
  dedup_hits : int;  (** successors identical to a passed state *)
  extrapolations : int;
      (** zones widened by maximal-constant extrapolation.  Like every
          field here this is accumulated in run-local state, so
          concurrent [run]s on separate domains cannot corrupt each
          other's counts. *)
}

type trace_step = {
  automaton : string;  (** "A -> B" description of the fired edge(s) *)
  state : Network.state;
}

type budget_reason = Search.budget_reason =
  | Max_states of int  (** the state cap that was hit *)
  | Deadline of float  (** the wall-clock budget, seconds *)

type outcome =
  | Hit of Network.state  (** the target is reachable; witness attached *)
  | Unreachable  (** full exploration completed without hitting it *)
  | Exhausted of budget_reason
      (** search gave up first: the answer is genuinely undetermined *)

type result = { outcome : outcome; stats : stats; trace : trace_step list }

val pp_budget_reason : Format.formatter -> budget_reason -> unit

val successors : Network.t -> Network.state -> (string * Network.state) list
(** All discrete successors (with delay closure applied), labelled for
    trace reporting.  Respects committed-location priority and binary
    synchronisation. *)

val run :
  ?max_states:int ->
  ?deadline:float ->
  ?inclusion:bool ->
  Network.t ->
  target ->
  result
(** Search (an instantiation of the generic {!Search} engine over
    interned, hash-consed zones) until the target is hit, the space is
    exhausted, or a budget runs out — the three cases are distinguished
    explicitly by {!outcome}, never conflated.  The frontier is
    breadth-first.  [deadline] is a wall-clock budget in seconds,
    checked every 256 expansions so the overrun is bounded by one check
    interval.
    [inclusion] (default [true]) enables zone-inclusion pruning on top
    of exact-match deduplication; with it off the search visits more
    symbolic states but each visit costs O(1) lookups — a better
    trade-off for tick-driven models whose zones are point-like.
    @raise Invalid_argument when [max_states <= 0] or [deadline <= 0]. *)

val reachable :
  ?max_states:int ->
  ?deadline:float ->
  ?inclusion:bool ->
  Network.t ->
  target ->
  bool
(** Boolean convenience over {!run}.
    @raise Failure on {!Exhausted} — a budget overrun must not be
    silently read as unreachability. *)
