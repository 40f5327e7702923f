(** The canonical single-slot scheduler semantics (paper Sec. 4).

    One TT slot is shared by a group of applications.  {!tick_into} is
    the one-sample transition function, on a mutable {!work}ing form;
    {!tick} runs it on an immutable state.  Both the runtime {!Arbiter}
    and the exact discrete verifier ([core.Dverify]) are built on it, so
    the co-simulation and the model checking cannot drift apart.

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

val disturbable : Appspec.t array -> t -> int list
(** The applications that may legally be disturbed at the coming tick,
    ascending: those already [Steady], plus those whose quiet period
    expires exactly at the tick (the [Safe -> Steady] step fires before
    disturbances are admitted, so an arrival at that very instant is
    admissible). *)

val equal : t -> t -> bool
val pp : Appspec.t array -> Format.formatter -> t -> unit

(** {2 The working form}

    A mutable state of one group.  Per application it holds the fields
    {!Packed} stores — phase tag, wait (or granted wait, or quiet age),
    EDF position (or served dwell [ct]) and remaining disturbance
    budget — as ints, plus the EDF buffer in service order and the
    owner.  {!Packed.work} creates one, {!Packed.read} decodes into it
    and {!Packed.write} encodes from it, so a verifier can tick a state
    and store it without building a {!t}.

    A working form is bounded when its layout bounds disturbance
    instances: each arrival then spends one unit of its application's
    budget, and a [Safe] application with no budget left returns to
    [Steady] at once — it can never be disturbed again, so its quiet
    countdown is behaviourally inert and collapsing it shrinks the state
    space. *)

type work

val tick_into :
  policy:policy ->
  slot_available:bool ->
  Appspec.t array ->
  work ->
  disturbed:int array ->
  int
(** {!tick} in place: [disturbed] lists the arrivals in order, and the
    tick's events come back packed in one int, read with {!grant} and
    {!erred}.  Allocates nothing.  On an exception the working form is
    left in an unspecified state.
    @raise Invalid_argument as {!tick} does, and on a bounded working
    form when a disturbed application has no budget left. *)

val grant : int -> int
(** The grant in {!tick_into}'s result: [0] when nobody was granted the
    slot, else [1 + id + n * wt] for the application [id] of an
    [n]-application group granted it at wait [wt]. *)

val erred : int -> bool
(** Whether the tick behind {!tick_into}'s result put an application
    in [Error]. *)

val disturbable_mask : Appspec.t array -> work -> int
(** {!disturbable} as a bit set (bit [id]), less the applications with
    no budget left on a bounded working form.  Groups of at most 62
    applications. *)

(** A bijective bit-field codec for the states of one slot group.

    Every timing variable ranges over a small finite set fixed by the
    group's specs (paper Sec. 5), so a state fits in one field per
    application: a phase tag, the wait / granted wait / quiet age, the
    position in the EDF buffer or the served dwell [ct], and — for
    bounded-instance verification — the remaining disturbance budget.
    [dt_min]/[dt_max] follow from the granted wait and the owner is the
    one [Running] application, so they cost no bits.  The encoding is an
    int array, each int holding whole fields (at most 62 bits), for any
    group size; equal arrays are equal states (with equal budgets).
    Verifiers store, deduplicate and subsume encodings, and {!read} one
    into a {!work}ing form only to run {!tick_into} on it. *)
module Packed : sig
  type layout

  val layout : ?instances:int -> Appspec.t array -> layout
  (** The field layout of [specs]' states; [instances] (default: no
      budget field, unbounded working forms) bounds the
      per-application budget.  Any number of applications fits; one
      application's field is [3 + wx + bits(instances) + max
      (bits(n - 1)) (bits(max T⁺_dw))] bits, where [wx], the width of
      every field's wait or age, is the largest [max (bits T*_w)
      (bits(r - 1))] of the group.
      @raise Invalid_argument on a negative [instances] or when one
      application's field would exceed 49 bits. *)

  val bits : layout -> int
  (** Bits in one encoding (summed over the applications). *)

  val length : layout -> int
  (** Ints in one encoding. *)

  val work : layout -> work
  (** A working form for the layout's group, in the initial state: every
      application [Steady], with [instances] budget each when bounded. *)

  val read : layout -> int array -> work -> unit
  (** Decode an encoding into a working form of the same layout.
      Allocates nothing.
      @raise Invalid_argument on an array of the wrong length or whose
      fields cannot describe a state (unknown tag, a wait past [T*_w],
      a buffer position taken twice or left open, two owners). *)

  val write : layout -> work -> int array -> unit
  (** Encode a working form of the layout into an array of [length]
      ints.
      Allocates nothing.
      @raise Invalid_argument on a field outside the layout. *)

  val decode : layout -> int array -> t
  (** The state an encoding describes (its budgets aside).
      @raise Invalid_argument as {!read}. *)

  val budget : layout -> int array -> int -> int
  (** The budget stored for one application. *)

  val has_error : layout -> int array -> bool
  (** Some application of the encoded state is in [Error]. *)

  val sort_apps :
    layout -> int array array -> int array -> into:int array -> int array
  (** Within each group of applications (ids, ascending; the members
      must have identical timing parameters), reassign the
      per-application fields to the members in ascending order of
      (phase, budget, buffer position) — the polymorphic order on
      those values, with phases ordered [Steady < Error < Waiting <
      Running < Safe] and by their payloads within a constructor.
      This is the symmetry quotient's canonical relabelling, computed
      on the fields without decoding.  The argument itself when every
      group is already in order, else [into] (of [length] ints)
      holding the relabelled encoding.  Allocates nothing. *)

  (** The quiet-age antichain's comparisons, without decoding or
      allocating: two encodings are in one group when they are equal
      once every [Safe] application's age is masked out, and within a
      group one covers another when its ages are pointwise at least
      as large. *)

  val hash_quiet : layout -> int array -> int
  (** A hash of the encoding with every [Safe] age masked out. *)

  val equal_quiet : layout -> int array -> int array -> bool
  (** Equal once every [Safe] age is masked out. *)

  val older : layout -> int array -> int array -> bool
  (** [older l a b], for [a] and [b] with [equal_quiet l a b]: every
      [Safe] application is at least as old in [a] as in [b]. *)
end
