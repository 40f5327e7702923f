(** First-fit mapping of applications to TT slots (paper Sec. 5,
    "Resource mapping").

    Applications are sorted by ascending [T*_w], ties broken by the
    smaller maximum of [T⁻_dw] (written T⁻*_dw in the paper), and
    packed first-fit: each application is added to the first existing
    slot whose extended group still passes control-performance
    verification; otherwise it opens a new slot. *)

type verdict = [ `Safe | `Unsafe | `Undetermined of string ]
(** [`Undetermined] carries a human-readable reason (budget overruns,
    under-approximate evidence only, ...). *)

type verifier = Sched.Appspec.t array -> verdict
(** Pluggable group verifier (the discrete engine by default; the
    timed-automata engine can be swapped in for cross-checking).  Both
    mappers treat [`Undetermined] exactly like [`Unsafe] — a group is
    only ever packed on a positive safety proof. *)

type slot = { index : int; apps : App.t list }

type outcome = {
  slots : slot list;
  verifications : int;
      (** number of group-safety questions asked (a question answered
          from the verdict cache counts too, so the figure is identical
          whatever the cache warmth) *)
  undetermined : int;
      (** verifier calls that could not decide (each conservatively
          treated as unsafe) *)
}

type cache = verdict Par.Vcache.t
(** Content-addressed verdict cache: canonical group fingerprint →
    verdict, mutex-protected (safe to share across domains and across
    both mappers).  Sound because a verdict is a pure function of the
    group's timing parameters — ids and probe order do not matter for
    exhaustive verification. *)

val create_cache : ?backing:verdict Par.Vcache.backing -> unit -> cache
(** [backing] (e.g. {!Pcache.mapping_backing}) extends the in-memory
    table with a persistent second level consulted on memory misses and
    written on engine runs. *)

val cache_stats : cache -> int * int
(** [(hits, misses)] so far; hits include backing-store hits. *)

val fingerprint : Sched.Appspec.t array -> string
(** The cache key: the entry count followed by name-sorted
    [len:name|T*_w|T⁻_dw|T⁺_dw|r] entries — invariant under group order
    and id assignment, and injective: names are length-prefixed so
    delimiter characters in an application name cannot alias another
    group's key. *)

val sort_order : App.t list -> App.t list
(** The paper's sorting: ascending [T*_w], then ascending [T⁻*_dw],
    then name for determinism. *)

val default_verifier : verifier
(** {!Dverify.verify}, unbudgeted and unscreened.  Passing it as
    [~verifier] to a mapper gives the engine-only run the differential
    tests compare against. *)

val first_fit : ?cache:cache -> ?verifier:verifier -> App.t list -> outcome
(** Run the mapping over the input sorted with {!sort_order}.

    [cache] memoises verdicts by {!fingerprint}; pass the same cache to
    both mappers (or across calls) to skip repeated probes of the same
    subset.

    Without [verifier], every candidate group is screened through
    {!Sched.Prefilter.decide} ahead of the cache and
    {!default_verifier}; a screened group still counts as one
    verification, so packings and all reported counts are the same as
    an unscreened run — only engine runs are saved ([mapping.screened]
    counts them).  A caller-supplied [verifier] may implement different
    semantics, for which the screen's soundness argument does not hold,
    so it runs unscreened. *)

val specs_of_group : App.t list -> Sched.Appspec.t array
(** Dense scheduler specs for a candidate group (ids assigned in list
    order). *)

val probe :
  ?cache:cache ->
  Sched.Appspec.t array ->
  verdict * [ `Screen | `Mem | `Disk | `Miss ]
(** One cache-aware group-safety question with the provenance of its
    answer: [`Mem]/[`Disk] (cache level that answered) or [`Miss]
    ({!default_verifier} ran).  Unscreened, so the answer is never
    [`Screen]; the type keeps that case for callers that report
    provenance alongside the mappers' screen. *)

val pp : Format.formatter -> outcome -> unit

val optimal :
  ?cache:cache ->
  ?verifier:verifier ->
  App.t list ->
  outcome
(** Exact minimum-slot partition (in contrast to the paper's first-fit
    heuristic).  Group safety is monotone — disturbing one application
    less can only shrink the adversary's options, so every superset of
    an unsafe group is unsafe and every subset of a safe group is safe
    — which prunes most of the subset lattice; the minimum partition
    over the safe subsets is then found by dynamic programming over
    bitmasks.  Exponential in the number of applications (fine for the
    slot-sized instances this problem deals in; guarded at 16 apps).
    [verifications] counts the verifier calls actually performed after
    pruning.  The screen applies as in {!first_fit}: screened subsets
    keep their place in the monotone lattice and in [verifications],
    so the partition and every count are unchanged — only engine runs
    are saved.
    @raise Invalid_argument beyond 16 applications. *)
