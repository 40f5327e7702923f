(** A small fixed-size domain pool: spawn once, share a FIFO work queue,
    hand out futures.  No libraries — just [Domain], [Mutex],
    [Condition] and [Atomic] from the stdlib.

    Its one user is the serve layer, which shards the distinct slot
    groups of a request across the pool (one whole verification per
    task) and merges the answers in request order, so the response is
    byte-identical at any [jobs] count.  A task must be that coarse:
    finer-grained work (one search's frontier states, one mapping
    round's probes, one table's rows) costs more to dispatch than it
    saves.

    Blocking [await] {e helps}: while the awaited future is pending, the
    waiting domain executes queued tasks from the same submission group
    instead of going idle.  Helping makes nested submissions on one pool
    deadlock-free, and a pool with [jobs = 1] (no worker domains at all)
    degenerates to plain in-order sequential execution. *)

type t

type 'a future

val create : jobs:int -> t
(** A pool executing on [jobs] domains in total: the caller plus
    [jobs - 1] spawned workers.  [jobs = 1] spawns nothing.
    @raise Invalid_argument when [jobs < 1]. *)

val await : t -> 'a future -> 'a
(** Block until the future is resolved, helping with same-group queued
    tasks meanwhile.  Re-raises the task's exception (with its original
    backtrace) if it failed. *)

val submit_list : t -> (unit -> 'a) list -> 'a future list
(** Enqueue every thunk under one shared submission group.  A thunk
    must not depend on domain-local state (it may run on any domain of
    the pool, including the caller's).  Awaiting any returned future
    helps with the other still-queued thunks of the same list. *)

val await_list : t -> 'a future list -> 'a list
(** {!await} each future in list order (the merge point callers use to
    keep results deterministic).  If several tasks failed, the
    exception of the first in list order is re-raised. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Only call when no task is in
    flight; pending futures of a shut-down pool never resolve.
    Idempotent. *)

(** {2 Process default}

    One shared pool, sized by [serve --jobs] (default 1 =
    sequential). *)

val default : unit -> t
(** The shared pool, created on first use with the size last passed to
    {!set_default_jobs} (1 if none). *)

val set_default_jobs : int -> unit
(** Resize the default pool (shutting the previous one down if its size
    changes).  @raise Invalid_argument when [jobs < 1]. *)
