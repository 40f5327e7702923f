(** Settling indices of the paper's disturbance experiment under the
    switching strategy, computed incrementally with a Lyapunov early
    exit.

    Every answer equals {!Settle.settling_index} of the output trace
    that {!Switched.run} produces from {!Switched.disturbed} over the
    same horizon: the kernel steps the hybrid state [[x; u_prev]] in
    place with {!Switched.step}'s arithmetic, operation for operation,
    so every simulated sample is the same float.  It differs in how
    much it simulates:

    - The ET wait is simulated once and extended from one wait to the
      next (waits asked in increasing order); a row of dwell times
      shares it and grows the TT segment by one sample per dwell,
      instead of re-simulating from sample 0.
    - A run stops at the first in-band sample [k] whose tail is
      certified: with [P] solving [AᵀPA − P + I = 0] for the closed loop
      [A] the tail runs in, every later output satisfies
      [|y| <= sqrt (c P⁻¹ cᵀ · z_kᵀ P z_k)], so once
      [(c P⁻¹ cᵀ) · z_kᵀ P z_k < (threshold · (1 − 1e-9))²] no later
      sample can leave the band.
    - The horizons stay as caps: 600 samples for a pure mode, [t_w + 600]
      for a hold, [t_w + t_dw + 400] for a dwell.  A trace still outside
      the band at its cap is [None], as in the reference.  A loop without
      a certificate ([P] not positive definite or [AᵀPA − P] not
      negative definite, e.g. an unstable one) simply runs to its cap.

    A kernel owns mutable scratch state: use one per domain. *)

type t

val make : Plant.t -> Switched.gains -> t
(** The kernel of one plant and gain pair, measuring against
    {!Settle.threshold}.  Solves the two Lyapunov equations, on
    {!Feedback.closed_loop_et} and {!Feedback.closed_loop_tt}. *)

val pure : t -> Switched.mode -> int option
(** Settling index with one mode throughout (a dedicated slot, or ET
    only); horizon 600. *)

val hold : t -> t_w:int -> int option
(** Settling index when waiting [t_w] samples in [ME] and then holding
    the slot forever; horizon [t_w + 600].
    @raise Invalid_argument on a negative [t_w]. *)

val dwells : t -> t_w:int -> len:int -> int option array
(** [(dwells k ~t_w ~len).(d)] is the settling index of a wait of [t_w]
    samples, a dwell of [t_dw = d + 1] samples in [MT] and [ME] again
    afterwards, over horizon [t_w + t_dw + 400].
    @raise Invalid_argument on a negative [t_w] or [len]. *)

val samples : t -> int
(** Samples stepped since {!make}, over every query. *)

(** {2 The certificate} *)

type certificate

val certify : Linalg.Mat.t -> Linalg.Vec.t -> certificate option
(** [certify a c] certifies the autonomous loop [z' = a z] with output
    [y = c z], or [None] when the Lyapunov solution is not positive
    definite, does not decrease along [a], or does not exist. *)

val bound : certificate -> Linalg.Vec.t -> float
(** [bound cert z] is [sqrt (c P⁻¹ cᵀ · zᵀPz)], an upper bound on [|y|]
    at [z] and at every later sample of the loop. *)
