(** The canonical single-slot scheduler semantics (paper Sec. 4).

    One TT slot is shared by a group of applications.  The state is an
    immutable value and {!tick} is the one-sample transition function;
    both the runtime {!Arbiter} and the exact discrete verifier
    ([core.Dverify]) are built on it, so the co-simulation and the
    model checking cannot drift apart.

    Per-sample semantics (in order):
    + every application that is waiting or being served ages by one
      sample; waiting applications' wait counters [WT] increase;
    + applications whose post-disturbance quiet time reached [r] return
      to [Steady];
    + disturbances that arrived during the previous inter-sample
      interval are admitted: each moves its (necessarily [Steady])
      application to [Waiting] with [WT = 0] and inserts it into the
      buffer in EDF order (least slack [T*_w - WT] first, ties behind
      incumbents — exactly the Sort automaton's strict comparison);
    + the slot is updated: a running application that has exhausted its
      maximum dwell [T⁺_dw(T_w)] releases the slot; if the slot is free
      the buffer head is granted (recording [T⁻_dw]/[T⁺_dw] looked up at
      its current [WT]); otherwise, if the occupant has served at least
      its minimum dwell [T⁻_dw] and somebody is waiting, it is
      preempted and the head granted;
    + any application still waiting with [WT > T*_w] moves to [Error].
 *)

type phase =
  | Steady
  | Waiting of { wt : int }
  | Running of { wt_granted : int; ct : int; dt_min : int; dt_max : int }
  | Safe of { age : int }
      (** slot released; [age] counts samples since the scheduler first
          saw the disturbance (the paper's [time\[id\]]), and the
          application returns to [Steady] once [age] reaches [r] *)
  | Error

type t = private {
  phases : phase array;  (** indexed by [Appspec.id] *)
  buffer : int list;  (** waiting ids in EDF service order *)
  owner : int option;
}

type outcome = {
  granted : (int * int) list;  (** (id, wait at grant) *)
  released : int list;  (** voluntary releases this sample *)
  preempted : int list;
  new_errors : int list;
  denied : int list;
      (** occupant evicted because the slot itself was unavailable
          (fault injection; empty in nominal runs) *)
}

type policy =
  | Eager_preempt
      (** the paper's strategy: preempt the occupant as soon as its
          minimum dwell is honoured and somebody is waiting *)
  | Lazy_preempt
      (** the paper's concluding-remarks variant: let the occupant keep
          improving its settling time and preempt only when a waiting
          application is on its last admissible sample
          ([WT = T*_w]) — better average control performance, possibly
          at the cost of schedulability (re-verify!) *)

val initial : Appspec.t array -> t
(** All applications [Steady].  Validates that ids are dense [0..n-1].
    @raise Invalid_argument otherwise. *)

val tick :
  ?policy:policy ->
  ?slot_available:bool ->
  Appspec.t array ->
  t ->
  disturbed:int list ->
  t * outcome
(** One sample (default policy {!Eager_preempt}).  [disturbed] lists
    (in arrival order) the applications whose disturbance arrived since
    the previous sample.

    [slot_available] (default [true]) models TT slot blackouts for
    fault injection: when [false] the slot update is replaced by an
    eviction — a running occupant is forced to [Safe] (ET mode, listed
    in [outcome.denied]) regardless of its minimum dwell, and nothing
    is granted this sample, while waiting applications keep aging
    towards [Error].  Nominal callers (the verifiers) never pass it, so
    the verified semantics is untouched.
    @raise Invalid_argument if a disturbed application is not [Steady]
    (the sporadic model with [J* < r] excludes this; feeding such an
    input is a harness bug). *)

val has_error : t -> bool
val phase : t -> int -> phase
val all_steady : t -> bool

val force_steady : t -> keep_quiet:(int -> bool) -> t
(** Snap every [Safe] application for which [keep_quiet id] is [false]
    directly to [Steady].  This is an abstraction hook for verifiers:
    when an application can provably never be disturbed again (e.g. its
    disturbance budget is exhausted in bounded-instance verification),
    its quiet countdown is behaviourally irrelevant and collapsing it
    shrinks the state space. *)

val disturbable : Appspec.t array -> t -> int list
(** The applications that may legally be disturbed at the coming tick,
    ascending: those already [Steady], plus those whose quiet period
    expires exactly at the tick (the [Safe -> Steady] step fires before
    disturbances are admitted, so an arrival at that very instant is
    admissible). *)

val equal : t -> t -> bool
val pp : Appspec.t array -> Format.formatter -> t -> unit

(** A bijective bit-field codec for the states of one slot group.

    Every timing variable ranges over a small finite set fixed by the
    group's specs (paper Sec. 5), so a state fits in one field per
    application: a phase tag, the wait / granted wait / quiet age, the
    position in the EDF buffer or the served dwell [ct], and — for
    bounded-instance verification — the remaining disturbance budget.
    [dt_min]/[dt_max] follow from the granted wait and the owner is the
    one [Running] application, so they cost no bits.  The encoding is a
    string of [ceil (bits / 8)] bytes, for any group size; equal
    strings are equal states (with equal budgets).  Verifiers store,
    deduplicate and subsume encodings and decode a state only to run
    {!tick} on it. *)
module Packed : sig
  type layout

  val layout : ?instances:int -> Appspec.t array -> layout
  (** The field layout of [specs]' states; [instances] (default: no
      budget field) bounds the per-application budget.  Any number of
      applications fits; one application's field is [3 + bits(r - 1) +
      bits(instances) + max (bits(n - 1)) (bits(max T⁺_dw))] bits.
      @raise Invalid_argument on a negative [instances] or when one
      application's field would exceed 49 bits. *)

  val bits : layout -> int
  (** Bits in one encoding (summed over the applications). *)

  val encode : layout -> ?budget:int array -> t -> string
  (** [budget] (indexed by [Appspec.id], default all 0) is stored
      beside the state.  Total on every state {!initial}, {!tick} and
      {!force_steady} produce for the layout's specs.
      @raise Invalid_argument on a state or budget outside the layout. *)

  val decode : layout -> string -> t
  (** Inverse of {!encode}: [decode l (encode l ?budget t)] is [t].
      @raise Invalid_argument on a string of the wrong length or whose
      fields cannot describe a state (unknown tag, a wait past [T*_w],
      a buffer position taken twice or left open, two owners). *)

  val budget : layout -> string -> int -> int
  (** The budget stored for one application. *)

  val sort_apps : layout -> int array list -> string -> string
  (** Within each group of applications (ids, ascending; the members
      must have identical timing parameters), reassign the
      per-application fields to the members in ascending order of
      (phase, budget, buffer position) — the polymorphic order on
      those values, with phases ordered [Steady < Error < Waiting <
      Running < Safe] and by their payloads within a constructor.
      This is the symmetry quotient's canonical relabelling, computed
      on the fields without decoding.  Physically the argument when
      every group is already in order. *)

  val split_ages : layout -> string -> string * int array
  (** The quiet-age antichain's two halves of an encoding: the encoding
      with every [Safe] application's age set to 0 (physically the
      argument when that changes nothing), and those ages in id
      order. *)
end
