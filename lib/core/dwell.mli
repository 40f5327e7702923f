(** Pre-computation of the strategy's timing tables (paper Sec. 3).

    For each possible wait time [T_w] the closed-loop simulation of all
    switching sequences yields:

    - [T⁻_dw(T_w)] — the minimum dwell time in [MT] such that {e every}
      dwell between it and [T⁺_dw(T_w)] meets the settling budget
      [J ≤ J*] (the suffix-safe reading of the paper's definition:
      preemption may strike at any admissible dwell, so feasibility
      must hold across the whole window — on the paper's case study
      the two readings coincide);
    - [T⁺_dw(T_w)] — the dwell time beyond which staying in [MT] no
      longer improves the settling time;
    - [T*_w] — the largest wait for which any dwell meets the budget.

    These finitely many integers abstract the whole control dynamics
    for the scheduling/verification layer. *)

type t = {
  j_star : int;  (** requirement, samples *)
  jt : int;  (** settling with a dedicated TT slot *)
  je : int;  (** settling on ET only *)
  t_w_max : int;  (** T*_w, an actual wait in samples *)
  stride : int;  (** wait granularity the table was computed with *)
  t_dw_min : int array;  (** row [i] holds wait [T_w = i * stride] *)
  t_dw_max : int array;  (** same indexing *)
  j_at_min : int array;  (** J when dwelling exactly [t_dw_min.(i)] *)
  j_at_max : int array;  (** J when dwelling exactly [t_dw_max.(i)] *)
}
(** Rows are stored one per {e simulated} wait: with [stride > 1] the
    arrays are shorter than [t_w_max + 1] and the raw wait is {e not} a
    valid index.  Prefer {!dw_min}/{!dw_max}/{!j_min}/{!j_max} (which
    reject off-grid waits) over direct array indexing. *)

exception Infeasible of string
(** Raised by {!compute} when the requirement cannot be met at all
    ([J_T > J*]), is trivially met without TT ([J_E <= J*]), or a
    closed-loop mode is unstable. *)

type cache = t Par.Vcache.t
(** Content-addressed table cache: {!fingerprint} → table.  With a
    persistent backing the pre-computation is skipped across process
    runs. *)

val create_cache : ?backing:t Par.Vcache.backing -> unit -> cache

val fingerprint :
  ?threshold:float ->
  ?stride:int ->
  Control.Plant.t ->
  Control.Switched.gains ->
  j_star:int ->
  string
(** Injective serialisation of every input {!compute} depends on
    (plant matrices, gains, sampling period, threshold, stride, j_star);
    floats are rendered in lossless [%h] notation. *)

val compute :
  ?cache:cache ->
  ?threshold:float ->
  ?stride:int ->
  Control.Plant.t ->
  Control.Switched.gains ->
  j_star:int ->
  t
(** Simulate every switching combination with wait granularity [stride]
    (default 1; the paper's conservativeness/memory trade-off) and
    build the table.  The settling indices come from one
    {!Control.Settle_kernel} per call, so they equal
    {!Strategy.settling}'s.  With [cache], the result is
    memoised under {!fingerprint} (infeasible computations raise and
    are never cached).  @raise Infeasible (see above). *)

val index_of_wait : t -> t_w:int -> int option
(** The row index holding wait [t_w], or [None] when [t_w] is negative,
    exceeds [t_w_max], or falls between stride grid points. *)

val dw_min : t -> t_w:int -> int
(** [T⁻_dw(t_w)].  @raise Invalid_argument on off-grid waits — the
    arrays are indexed by row, not by wait, whenever [stride > 1]. *)

val dw_max : t -> t_w:int -> int
val j_min : t -> t_w:int -> int
val j_max : t -> t_w:int -> int

val waits : t -> int list
(** The simulated waits, in order: [0; stride; ...; t_w_max]. *)

val surface :
  ?threshold:float ->
  Control.Plant.t ->
  Control.Switched.gains ->
  t_w_max:int ->
  t_dw_max:int ->
  (int * int * int option) list
(** The raw settling surface [J(T_w, T_dw)] of Fig. 3, in samples;
    [None] marks combinations that never settle within the horizon. *)

val deadline : t -> t_w:int -> int
(** [D = T*_w - T_w], the slack the arbiter sorts by (Sec. 4) — a
    quantity in samples, valid for any wait in [0..t_w_max] whatever
    the stride.  @raise Invalid_argument outside that range. *)

val validate : t -> (unit, string) result
(** Structural sanity: array lengths match [t_w_max / stride + 1] and
    [t_w_max] sits on the stride grid, minima do not exceed maxima,
    settling values honour [j_star]. *)

val pp : Format.formatter -> t -> unit
