(** Exact discrete-time verification of a slot group.

    The paper model-checks a network of timed automata in UPPAAL.  As
    it observes, every event in the system happens at a sample boundary
    and all timing variables range over small finite sets, so the
    reachable behaviour is a finite transition system over
    {!Sched.Slot_state}: at every sample an adversary disturbs any
    subset of the currently steady applications (the sporadic model
    with minimum inter-arrival [r] is enforced by the quiet phase).
    The group is safe iff no reachable state contains an [Error] phase
    — the same query as the paper's "no application automaton reaches
    Error".

    One engine decides the question: a depth-first search that skips
    every state whose remaining quiet times dominate an explored one
    pointwise (such a state admits a subset of its behaviours, so the
    pruning is sound and complete for error reachability), explored up
    to permutations of applications with identical timing parameters.
    {!verify_bounded} runs it under the paper's Sec. 5 acceleration:
    each application is limited to [k] disturbance instances.
    {!reference} is plain exhaustive breadth-first search, the oracle
    the engine is tested against and the source of shortest
    counterexamples. *)

type reason =
  | Deadline of float  (** wall-clock budget, seconds *)
  | State_budget of int

type verdict =
  | Safe
  | Unsafe of counterexample
  | Undetermined of reason
      (** a budget ran out before the reachable space was covered; the
          group is neither proved safe nor shown unsafe *)

and counterexample = {
  steps : (int list * Sched.Slot_state.t) list;
      (** chronological (disturbed ids, post state) from the initial
          state to the first error *)
  failing : int list;  (** ids in error at the end *)
}

type stats = {
  states : int;  (** distinct states explored *)
  transitions : int;  (** ticks evaluated *)
  elapsed : float;  (** wall-clock seconds *)
  max_wait : int array;
      (** per application, the largest wait at which it was ever
          granted the slot across the whole reachable space — the
          exact worst-case response time of the group (indexed by
          [Appspec.id]; [-1] when never granted, e.g. never disturbed
          or exploration aborted on a counterexample) *)
}

type result = { verdict : verdict; stats : stats }

val verify :
  ?policy:Sched.Slot_state.policy ->
  ?deadline:float ->
  ?max_states:int ->
  Sched.Appspec.t array ->
  result
(** Exhaustive verification (default policy
    {!Sched.Slot_state.Eager_preempt}).  Pass [~policy:Lazy_preempt] to
    check the paper's concluding-remarks variant that postpones
    preemption.  [deadline] (wall-clock seconds, checked every 1024
    expansions) and [max_states] bound the search; when either runs out
    the verdict is {!Undetermined} — never a silent [Safe].

    States that coincide after canonically relabelling each orbit of
    identical-parameter applications (same [T*_w], [T⁻_dw], [T⁺_dw],
    [r]) are explored once; on [Safe] the [max_wait] table is the orbit
    maximum, which equals the exact per-application value by symmetry.
    The verdict and [max_wait] equal {!reference}'s; [states] and
    [transitions] count the pruned, quotiented space.  An [Unsafe]
    counterexample is a real run of {!Sched.Slot_state.tick}, but
    depth-first order makes it no shorter, and often longer, than
    {!reference}'s.

    A run shares no state with any other run, so verifications of
    different groups may run on different domains at once (as
    [serve]'s group shards do).  Deadline cut-offs are wall-clock
    dependent; every other result is a pure function of the group.
    @raise Invalid_argument when [deadline <= 0], [max_states < 1] or
    the group has more than 62 applications. *)

val verify_bounded :
  ?policy:Sched.Slot_state.policy ->
  ?deadline:float ->
  ?max_states:int ->
  instances:int ->
  Sched.Appspec.t array ->
  result
(** {!val-verify} with each application disturbed at most [instances]
    times.  An under-approximation in general; exact whenever the
    unbounded system is "memoryless" past that many instances (the
    paper argues the bound computed from coinciding-disturbance
    counting is sufficient for its case study).  The per-application
    disturbance budgets are part of the canonical form, so the quotient
    stays exact.
    @raise Invalid_argument when [instances < 1]. *)

val reference :
  ?policy:Sched.Slot_state.policy ->
  ?instances:int ->
  ?deadline:float ->
  ?max_states:int ->
  Sched.Appspec.t array ->
  result
(** Plain breadth-first search with exact deduplication: no
    subsumption and no quotient, analogous to the paper's unbounded
    UPPAAL run.  With [instances] it bounds disturbances as
    {!verify_bounded} does.  Its counterexample is a shortest one, so
    the [verify] command prints it for an [Unsafe] group; its other use
    is as the tests' oracle for {!val-verify}.  It can explore orders of
    magnitude more states than the engine. *)

val pp_reason : Format.formatter -> reason -> unit
val pp_verdict : Sched.Appspec.t array -> Format.formatter -> verdict -> unit

val pp_counterexample :
  Sched.Appspec.t array -> Format.formatter -> counterexample -> unit
(** The failing schedule sample by sample: disturbance arrivals and the
    resulting scheduler state, ending at the deadline miss. *)
