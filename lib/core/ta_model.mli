(** The paper's timed-automata system model (Sec. 4, Figs. 5-7),
    constructed over the generic {!Ta} substrate.

    The network consists of one application automaton per application
    (locations Steady, Dist_init (committed), ET_Wait, TT, ET_SAFE,
    Error; clock [time\[id\]]) and a scheduler automaton (clock [x]
    with a one-sample tick, clock [cT] for the occupant's dwell).  The
    nested Policy/Sort automata of Fig. 6 execute in committed
    locations with no time passing, so they are folded into a single
    atomic transfer-and-sort update on the scheduler's tick — a
    semantics-preserving simplification of the same model.

    The verification query is reachability of any application's Error
    location: the group is safe iff it is unreachable. *)

val build : Sched.Appspec.t array -> Ta.Network.t
(** The network for one slot group.
    @raise Invalid_argument on an empty group. *)

val error_target : Sched.Appspec.t array -> Ta.Reach.target
(** Holds when some application automaton is in Error. *)

type result = {
  outcome : [ `Safe | `Unsafe | `Undetermined of Ta.Reach.budget_reason ];
      (** [`Undetermined] when a state or wall-clock budget ran out
          before the Error location could be proved (un)reachable *)
  stats : Ta.Reach.stats;
}

val verify :
  ?max_states:int ->
  ?deadline:float ->
  Sched.Appspec.t array ->
  result
(** Zone-based model checking of the group (default cap 2,000,000
    symbolic states; [deadline] is a wall-clock budget in seconds).
    Runs {!Ta.Reach.run} with exact matching only: the tick-driven
    zones of this model are point-like, so zone inclusion would cost
    more than it prunes. *)

(** Store layout (exposed for white-box tests). *)
module Layout : sig
  val wt : n:int -> int -> int
  val dt_min : n:int -> int -> int
  val dt_max : n:int -> int -> int
  val run : n:int -> int
  val owner : n:int -> int
  val dist : n:int -> int
  val len0 : n:int -> int
  val buf0 : n:int -> int -> int
  val len : n:int -> int
  val buf : n:int -> int -> int
  val store_size : n:int -> int

  val clock_time : int -> int
  (** clock index of [time\[id\]] *)

  val clock_ct : n:int -> int
  val clock_x : n:int -> int

  val loc_steady : int
  val loc_dist_init : int
  val loc_et_wait : int
  val loc_tt : int
  val loc_et_safe : int
  val loc_error : int
end
