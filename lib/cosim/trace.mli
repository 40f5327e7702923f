(** Results of a closed-loop co-simulation. *)

type t = {
  names : string array;
  h : float;  (** sampling period of the group *)
  outputs : float array array;  (** [outputs.(id).(k)] = y_id at sample k *)
  owner : int option array;  (** slot owner during [k, k+1) *)
  log : Sched.Arbiter.log_entry list;
  disturbances : (int * int) list;  (** (sample, id) *)
}

val settling_after : t -> id:int -> sample:int -> int option
(** Settling index of application [id] measured from the disturbance at
    [sample] (in samples since the disturbance); [None] when the tail
    has not settled within the trace. *)

val tt_samples : t -> id:int -> int
(** Total samples during which [id] owned the slot. *)

val owner_intervals : t -> (int * int * int) list
(** Maximal ownership intervals [(id, first, last)] (inclusive). *)

val meets_requirements : t -> Core.App.t list -> bool
(** Every disturbance of every app settles within its [J*]. *)

val to_rows : t -> stride:int -> string list
(** Human-readable table rows ["t  y1 y2 ... owner"] every [stride]
    samples, for the bench harness printouts. *)

val to_gantt : t -> string list
(** One line per application: '#' while it owns the TT slot, '*' at the
    sample its disturbance is sensed, '.' otherwise — the textual
    version of the shaded occupancy ribbons in Figs. 8/9. *)
