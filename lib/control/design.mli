(** Automatic synthesis of a switching gain pair for a plant.

    The paper assumes the two controllers are designed offline: a fast
    [K_T] for the TT mode and a slow [K_E] for the delayed ET mode,
    such that [J_T <= J* < J_E] and the pair is switching stable
    (common quadratic Lyapunov function, Sec. 3).  This module
    automates that search: [K_T] candidates are pole placements with
    all poles on a real ring of decreasing radius, [K_E] candidates mix
    LQR designs (sweeping the input weight) and slow pole placements,
    and every pair is screened against the settling-time bracket and
    the CQLF test.

    The search is a practical design aid, not an optimiser: it returns
    the first admissible pair in a deterministic candidate order,
    together with the screening record. *)

type candidate = {
  kt_radius : float;
  ke_source : string;  (** "lqr r=..." or "poles rho=..." *)
  jt : int option;  (** settling with K_T alone, samples *)
  je : int option;  (** settling with K_E alone *)
  switching_stable : bool;
  verdict : [ `Accepted | `Rejected of string ];
}

(** Switching stability (Sec. 3) is a {e recommendation} for resource
    efficiency: the dwell tables are computed from the exact switched
    trajectories, so the [J <= J*] guarantee never depends on the CQLF.
    By default the search prefers a certified pair but falls back to
    the first bracketing pair when the whole grid lacks a certificate;
    [~require_cqlf:true] makes the certificate mandatory. *)

type outcome = {
  gains : Switched.gains option;
  trace : candidate list;  (** screening record, in search order *)
}

val search : ?require_cqlf:bool -> Plant.t -> j_star:int -> outcome
(** [search plant ~j_star] screens the candidate grid ([K_T] pole radii
    0.15..0.6; LQR input weights 0.1..30 and pole radii 0.8..0.95 for
    [K_E]) and stops at the first certified admissible pair; without
    [~require_cqlf:true] it falls back to the first uncertified
    bracketing pair when no candidate is certified.
    @raise Invalid_argument if the plant is not controllable or
    [j_star < 1]. *)

val synthesize :
  ?require_cqlf:bool -> Plant.t -> j_star:int -> (Switched.gains, string) result
(** {!search} reduced to its answer; the error carries a summary of why
    the grid failed (useful in error messages). *)
