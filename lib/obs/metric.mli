(** Counters, gauges and histograms with a process-wide, domain-safe
    registry.

    Handles are obtained by name; asking twice for the same name
    returns the same metric, so independent modules can contribute to
    one series.  All mutating operations are guarded by
    {!Trace_ctx.enabled} — with observability off they cost one atomic
    load and allocate nothing.

    Every operation is safe under concurrent multi-domain use: the
    registry is mutex-protected, counters are [Atomic.t], gauges are
    [float option Atomic.t] ([set_max] is a CAS loop, so racing peak
    publications keep the true maximum), and each histogram carries
    its own mutex around append/grow and summarisation. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Find-or-create.  Creating a handle registers the metric even while
    disabled (the value just stays at zero). *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge : string -> gauge

val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** Keep the maximum of all observations (peak tracking). *)

val gauge_value : gauge -> float option
(** [None] until first set. *)

val histogram : ?measured:bool -> string -> histogram
(** [measured] (default [false]) declares that the histogram's sample
    count is itself a measurement — it counts scheduling or timing
    events, such as a pool worker parking — rather than exact
    bookkeeping of the work done.  The flag given when the histogram
    is created stands; it travels in {!summary} so {!Diff} can tell the
    two kinds apart. *)

val observe : histogram -> float -> unit

val percentile : histogram -> float -> float
(** Nearest-rank percentile, [q] in [0, 1].  [nan] on an empty
    histogram. *)

(** One-shot, name-based convenience for publication points (a single
    registry lookup; still disabled-guarded): *)

val count : string -> int -> unit
val set_gauge : string -> float -> unit
val max_gauge : string -> float -> unit
val observe_value : ?measured:bool -> string -> float -> unit

type summary = {
  n : int;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  measured : bool;  (** as declared by {!histogram} *)
}

type entry =
  | Counter of string * int
  | Gauge of string * float
  | Histogram of string * summary

val snapshot : unit -> entry list
(** Everything in the registry with at least one recorded value,
    sorted by name.  Counters still at zero and unset gauges are
    omitted so a report only shows what the run actually touched. *)

val reset : unit -> unit
(** Empty the registry (tests, multi-report harnesses). *)
