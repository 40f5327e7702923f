(** Hierarchical timing spans.

    A span measures one phase of a pipeline (a dwell-table
    computation, a model-check call, a whole CLI subcommand); nesting
    is tracked through {!Trace_ctx}, so a span started while another
    is open becomes its child.  Each span also records the GC work its
    extent covered.  Minor words are exact and the starting domain's own
    ([Gc.minor_words] deltas; a span starts and finishes on one domain).
    Major words and compactions are [Gc.quick_stat] deltas, which
    advance only at collections and sum every domain's work.

    Finished spans accumulate in a {e fixed-capacity ring} that
    {!Report.collect} drains: once full, the oldest record is
    overwritten and {!dropped} counts the loss, so spans in a hot loop
    cannot grow memory without bound.  Both the ring and the open-span
    table are mutex-protected for cross-domain use.

    Durations come from the monotonic clock ({!Clock.now}), never the
    wall clock, so an NTP step cannot produce a negative [dur_s].

    When observability is disabled every function here degenerates to
    (at most) one atomic load: {!start} returns {!none} without
    allocating and {!with_} tail-calls its argument. *)

type t
(** A handle to an open span.  {!none} is the inert handle returned on
    the disabled path. *)

val none : t

val start : string -> t
(** Open a span named [name] under the currently innermost open span
    of the calling domain.  Returns {!none} when observability is
    disabled. *)

val finish : t -> unit
(** Close the span and record it.  A no-op on {!none}; finishing the
    same handle twice records it once. *)

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] wraps [f ()] in a span.  The span is finished even
    when [f] raises. *)

type record = {
  id : int;
  name : string;
  parent : int option;  (** id of the enclosing span, if any *)
  start_s : float;  (** monotonic-clock seconds ({!Clock.now}) *)
  dur_s : float;
  gc_minor_w : float;  (** minor words allocated during the span *)
  gc_major_w : float;  (** major words allocated during the span *)
  gc_compact : int;  (** heap compactions during the span *)
}

val drain : unit -> record list
(** All buffered finished spans in completion order (oldest first),
    clearing the ring.  Records that were overwritten before the drain
    are gone; see {!dropped}. *)

val dropped : unit -> int
(** Finished spans overwritten because the ring was full, since the
    last {!reset}/{!set_capacity}. *)

val set_capacity : int -> unit
(** Replace the ring with an empty one of the given capacity (min 1,
    default 8192).  Discards buffered spans and zeroes {!dropped}. *)

val reset : unit -> unit
(** Drop finished and open spans and zero {!dropped} (tests,
    multi-report harnesses). *)
