(** Timing parameters of the {e baseline} strategy (Masrur et al.,
    DATE'12) derived from the closed-loop dynamics.

    In the baseline an application that obtains the TT slot keeps it
    until the disturbance is fully rejected.  Its scheduling interface
    therefore reduces to a deadline [w_star] (the longest wait after
    which full-TT rejection still meets [J*]) and a worst-case
    occupancy [c_occ] (the longest it may then hold the slot). *)

type t = { w_star : int; c_occ : int }

val compute : Control.Plant.t -> Control.Switched.gains -> j_star:int -> t
(** @raise Dwell.Infeasible when even an immediate grant cannot meet
    the budget. *)

val to_spec :
  id:int -> name:string -> r:int -> t -> Sched.Baseline.spec
