(** Settling-time measurement on sampled output traces.

    The paper's metric: [J] is the smallest index such that
    [|y[k]| <= threshold] for every [k >= J] within the simulated
    horizon.  Sec. 3.1 fixes one band, [threshold = 0.02], for every
    application, and every settling time in the library is measured
    against it. *)

val threshold : float
(** [0.02], the band used throughout the paper. *)

val settling_index : float array -> int option
(** Smallest [j] with [|y[k]| <= threshold] for all [k >= j].
    [None] when the final sample still violates the band (the trace is
    too short to conclude, or the system diverges). *)

val peak : float array -> float
(** Maximum [|y[k]|] over the trace; 0 on the empty trace. *)
