(** Discrete-time Lyapunov equations and positive-definiteness tests.

    These are the numerical primitives behind the switching-stability
    check of the paper (Sec. 3, "comments on switching stability"): the
    two closed-loop modes must admit a common quadratic Lyapunov
    function. *)

val cholesky : Mat.t -> Mat.t option
(** [cholesky a] is [Some l] with [a = l lᵀ] (lower-triangular [l]) when
    the symmetrised input is positive definite, [None] otherwise. *)

val is_positive_definite : ?tol:float -> Mat.t -> bool
(** Positive definiteness of the symmetric part, by Cholesky with a
    relative pivot tolerance (default [1e-10]). *)

val is_negative_definite : ?tol:float -> Mat.t -> bool

val solve_discrete : Mat.t -> Mat.t -> Mat.t
(** [solve_discrete a q] solves the discrete Lyapunov (Stein) equation
    [aᵀ p a - p + q = 0] for symmetric [p], by vectorisation:
    [(I - aᵀ⊗aᵀ) vec p = vec q].

    @raise Invalid_argument on shape mismatch.
    @raise Lu.Singular when [a] has reciprocal eigenvalue pairs (the
    equation is then singular). *)

val residual : Mat.t -> Mat.t -> Mat.t -> float
(** [residual a q p] is [‖aᵀ p a - p + q‖_F], for testing solutions. *)

val decreases : Mat.t -> Mat.t -> bool
(** [decreases p a] holds when [aᵀ p a - p] is negative definite, i.e.
    [zᵀ p z] strictly decreases along [z' = a z]. *)

val common_lyapunov : Mat.t -> Mat.t -> Mat.t option
(** [common_lyapunov a1 a2] searches for a single positive-definite [p]
    with [aᵢᵀ p aᵢ - p] negative definite for both closed-loop matrices.
    The search solves the Stein equation for convex combinations of the
    per-mode solutions and checks definiteness; it is sound (a returned
    [p] is certified by the definiteness tests) but not complete. *)
