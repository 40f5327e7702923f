(** Persistent verification cache: the bridge between the in-memory
    {!Par.Vcache} memo tables and the on-disk {!Store}.

    One handle wraps one store file and hands out backed caches for the
    two expensive computations — group verdicts ({!Mapping}) and dwell
    tables ({!Dwell}) — so `verify`, `map` and `stress` invocations
    reuse each other's work across process runs.

    Soundness rules:

    - only definitive verdicts ([`Safe]/[`Unsafe]) are persisted; an
      [`Undetermined] verdict is a budget artifact of one particular
      run and must never answer a later run's question;
    - the store is salted with {!engine_salt}; bump it whenever engine
      semantics or codec formats change and every old record is dropped
      on the next open;
    - keys are the injective fingerprints ({!Mapping.fingerprint},
      {!Dwell.fingerprint}) used verbatim — no hashing, so a collision
      is impossible by construction. *)

type t

val engine_salt : string
(** Fingerprint of everything a cached value depends on besides its
    key: verification-engine semantics and the table codec version.
    Stored in the file header; a mismatch invalidates the whole file. *)

val open_ : path:string -> (t, string) result
(** Open (creating if missing) the store at [path] under
    {!engine_salt}.  [Error] when the file exists but is not a store,
    or on IO failure. *)

val mapping_cache : t -> Mapping.cache
(** The verdict cache backed by this store (one per handle, created
    lazily).  Pass it to {!Mapping.first_fit}/{!Mapping.optimal}. *)

val dwell_cache : t -> Dwell.cache
(** The dwell-table cache backed by this store (one per handle). *)

val record_verdict : t -> Sched.Appspec.t array -> Mapping.verdict -> unit
(** Persist a verdict obtained outside the mapping path (e.g. by the
    [verify] command).  [`Undetermined] is ignored; callers must not
    pass a bounded-[`Safe] under-approximation. *)

val find_verdict : t -> Sched.Appspec.t array -> Mapping.verdict option
(** Direct store probe (bypasses the in-memory layer). *)

val store : t -> Store.t
val stats : t -> Store.stats

val read_only : t -> bool
(** Another process holds the store's writer lock: verdicts and tables
    computed through this handle stay in memory and are not persisted
    (see {!Store.read_only}). *)

val close : t -> unit
