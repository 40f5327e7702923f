(** Orbit partitions for symmetry quotienting.

    A client whose states are indexed by a fixed set of components
    (e.g. one sub-state per application) can quotient its search space
    by any group of component permutations that commutes with the
    transition relation.  The usual source of such a group is
    interchangeable components: applications with identical timing
    parameters can be swapped without changing reachability of an
    error, so states that differ only by such a swap are equivalent.

    This module provides the orbit partition (which components are
    interchangeable) plus the shared [search.orbit_collapsed] metric.
    The client relabels its own state representation canonically
    within each orbit (e.g. by sorting the members' sub-states) and
    uses the result as its dedup key; the engine itself is untouched,
    so a client that opts out keeps byte-identical behaviour. *)

type t
(** An orbit partition of components [0 .. n-1]. *)

val partition : n:int -> same:(int -> int -> bool) -> t
(** Group components into orbits of pairwise-[same] members.  [same]
    must be an equivalence on [0 .. n-1]; it is sampled against the
    smallest member of each existing orbit, so [partition] is O(n ×
    orbits). *)

val nontrivial : t -> bool
(** At least one orbit has two or more members — quotienting can
    collapse something.  When false, clients should skip
    canonicalisation entirely: the identity is the only
    orbit-preserving permutation. *)

val orbits : t -> int list array
(** The orbits as sorted member lists (ascending), largest-first not
    guaranteed; singleton orbits included.  Useful for post-run
    fix-ups such as replacing per-member statistics by their orbit
    maximum. *)

val note_collapsed : unit -> unit
(** Count one state folded onto a different orbit representative on
    the shared [search.orbit_collapsed] metric (no-op while
    observability is disabled). *)
