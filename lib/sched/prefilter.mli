(** Two-sided analytic screening of a slot group, ahead of the exact
    engines.

    The exact verifiers decide safety of a candidate group by state
    exploration, which is the cost centre of every mapping run — yet
    most candidate groups are either so lightly loaded that a
    busy-window bound already proves every wait within [T*_w], or so
    overloaded that one concrete saturation schedule already exhibits a
    deadline miss.  This module decides those two easy regions
    analytically and leaves only the gap to the engine:

    - {b sufficient accept} ({!accepts}): a response-time fixed point
      in the style of {!Baseline.start_time_bound}, generalised to the
      dwell-table abstraction ({!Appspec.t}).  While an application
      waits, every competitor occupies the slot for at most its
      largest minimum dwell per grant (the occupant is preempted as
      soon as its minimum dwell is honoured whenever somebody waits),
      and consecutive grants of one competitor
      start at least [r - T*_w] samples apart (a new disturbance may
      arrive [r] after the previous one, and the previous grant
      started at most [T*_w] after that previous arrival).  If the
      least fixed point of the resulting interference sum is within
      [T*_w] for every application, no reachable schedule can miss —
      the group is [Analytic_safe].

    - {b necessary reject} ({!rejects}): a demand-bound trigger
      (simultaneous-burst demand above some [T*_w], or total
      utilisation above 1) followed by concrete witness simulation of
      the greedy saturation adversary — every application is disturbed
      the moment the sporadic model allows, under a handful of arrival
      orders.  Each simulated schedule is one adversary strategy of
      the exact engine, so a deadline miss found here is a real
      counterexample and the group is [Analytic_unsafe], witness
      attached.  (The trigger is only a heuristic gate for the
      simulation; the witness alone decides.)

    Both sides are sound by construction: [Analytic_safe] implies the
    exact engine answers Safe, [Analytic_unsafe] implies it answers
    Unsafe — the differential battery in [test/test_prefilter.ml]
    checks exactly these two implications on random groups.
    Everything else is {!Inconclusive} and must fall through to the
    engine.

    Both sides assume the paper's eager preemption
    ({!Slot_state.Eager_preempt}), the policy of every mapper; a group
    verified under {!Slot_state.Lazy_preempt} goes to the engine
    unscreened. *)

type witness = {
  steps : (int list * Slot_state.t) list;
      (** chronological (disturbed ids in arrival order, post state)
          from the initial state to the first miss — the same shape as
          the exact engine's counterexample *)
  failing : int list;  (** ids in error at the last step *)
}

type decision = Analytic_safe | Analytic_unsafe of witness | Inconclusive

val busy_window : Appspec.t array -> int -> int option
(** [busy_window specs i] is the least fixed point of the interference
    sum for application [i], or [None] when the iteration exceeds
    [T*_w(i)] — an upper bound on
    the wait of [i] at any grant, valid in every reachable schedule of
    the group. *)

val accepts : Appspec.t array -> bool
(** Every application's {!busy_window} is within its [T*_w]. *)

val rejects : Appspec.t array -> witness option
(** A saturation schedule missing a deadline, when the demand-bound
    trigger fires and one of the simulated arrival orders exhibits
    one. *)

val decide : Appspec.t array -> decision
(** {!accepts}, then {!rejects}, then {!Inconclusive}.  Publishes the
    [prefilter.accepts] / [prefilter.rejects] / [prefilter.fallbacks]
    counters when observability is enabled. *)
