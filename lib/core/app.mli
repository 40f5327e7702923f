(** Binding a control application to its scheduler-facing timing
    abstraction: the bridge between the control layer (plant, gains,
    requirement) and the scheduling/verification layer
    ({!Sched.Appspec}). *)

type t = {
  name : string;
  plant : Control.Plant.t;
  gains : Control.Switched.gains;
  r : int;  (** minimum disturbance inter-arrival, samples *)
  j_star : int;  (** settling budget, samples *)
  table : Dwell.t;  (** precomputed dwell tables *)
}

val make :
  ?cache:Dwell.cache ->
  name:string ->
  plant:Control.Plant.t ->
  gains:Control.Switched.gains ->
  r:int ->
  j_star:int ->
  unit ->
  t
(** Compute the dwell tables, one row per wait, and package the
    application.  [cache] memoises (and, with a persistent backing,
    reloads) the table computation.
    @raise Dwell.Infeasible when the requirement cannot be met.
    @raise Invalid_argument when [r] is too small for the sporadic
    model (it must exceed every wait + maximum dwell, and the paper
    additionally assumes [J* < r]). *)

val spec : t -> id:int -> Sched.Appspec.t
(** The scheduler-facing view under a dense per-slot index. *)

val t_w_max : t -> int
val pp : Format.formatter -> t -> unit

val pp_tables : Format.formatter -> t -> unit
(** The dwell tables as three lines with no final newline: name, [r],
    [J*], [J_T], [J_E] and [T*_w], then the [T-_dw] and [T+_dw] rows —
    what [cpsdim tables] and serve's [dwell] answer print. *)
