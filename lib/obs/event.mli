(** Structured event stream: timestamped, domain-tagged records pushed
    from instrumentation points (search heartbeats, pool task
    lifecycles, cache provenance) into a bounded in-memory queue that
    the CLI drains to a JSONL sink ([--events PATH]).

    The stream has its own master switch, independent of
    {!Trace_ctx}: metrics stay cheap enough to enable whenever
    [--metrics] is given, while events allocate a record per emission
    and are only worth paying for when a sink will consume them.
    With the switch off, {!emit} is an atomic load and nothing else.

    The queue is mutex-protected (emissions come from pool workers)
    and bounded per event name (default 65536 records of each name):
    under pressure the {e newest} event of that name is dropped and
    counted, keeping each name's prefix intact so rates computed from
    heartbeats stay interpretable and a chatty source (pool task
    lifecycles of a large parallel search) cannot crowd the others
    out. *)

type field =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type t = {
  ts_s : float;  (** monotonic seconds since {!enable} *)
  domain : int;  (** emitting domain's id *)
  name : string;
  fields : (string * field) list;
}

val enabled : unit -> bool
val enable : unit -> unit
(** Turns the stream on and re-bases event timestamps at now. *)

val disable : unit -> unit

val emit : string -> (string * field) list -> unit
(** [emit name fields] enqueues one event; a no-op (one atomic load)
    while disabled.  Builds the field list eagerly — at high-frequency
    sites, guard the call with {!enabled} if constructing the fields
    is itself costly. *)

val drain : unit -> t list
(** All queued events in emission order, clearing the queue. *)

val dropped : unit -> int
(** Events discarded because their name's share of the queue was full,
    since the last {!reset}/{!set_capacity}. *)

val set_capacity : int -> unit
(** Replace the per-name queue bound (min 1, default 65536).  Clears
    the queue and zeroes {!dropped}. *)

val reset : unit -> unit
(** Disable, clear the queue, zero {!dropped}. *)

val to_json : t -> Jsonx.t
(** [{"ev": name, "ts_s": ..., "domain": ..., <fields>}] — one JSONL
    record per event. *)
