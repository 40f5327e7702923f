(** End-of-run aggregation: one report = the metric registry snapshot
    plus the finished span tree, serialisable to a single JSON line
    (the JSONL record format the [--metrics] flag and [cpsdim report]
    speak) and pretty-printable as a human summary.

    JSONL schema (one object per line, schema id ["cpsdim.obs/2"];
    ["cpsdim.obs/1"] records — which lack the per-span GC fields — are
    still accepted on read with the GC deltas defaulted to zero):
    {v
    { "schema": "cpsdim.obs/2", "command": "verify",
      "timestamp": 1722870000.0, "elapsed_s": 12.3,
      "counters":   { "ta.reach.states": 10201, ... },
      "gauges":     { "ta.reach.waiting_peak": 95.0, ... },
      "histograms": { "dwell.per_tw_s":
                        { "n": 26, "min": ..., "max": ..., "mean": ...,
                          "p50": ..., "p90": ..., "p99": ... }, ... },
      "spans": [ { "id": 1, "name": "verify", "parent": null,
                   "start_s": 0.0, "dur_s": 12.3,
                   "gc_minor_w": 1.2e8, "gc_major_w": 3.4e6,
                   "gc_compact": 0 }, ... ] }
    v}
    A histogram declared measured ({!Metric.histogram}) also carries
    ["measured": true]; the field is absent otherwise and defaults to
    [false] on read.  Span [start_s] is relative to the earliest span
    in the report.
    When the span ring or the event queue overflowed during the run,
    the counters [obs.spans_dropped] / [obs.events_dropped] appear in
    the report so truncation is visible. *)

(** Minimal JSON tree, re-exported from {!Jsonx} so existing users of
    [Report.json] keep compiling. *)
type json = Jsonx.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Assoc of (string * json) list

val json_to_string : json -> string
(** Compact, single-line; strings escaped per RFC 8259. *)

val json_of_string : string -> (json, string) result
(** Strict recursive-descent parser for the subset emitted above
    (numbers, strings, bools, null, arrays, objects). *)

type t = {
  command : string;
  timestamp : float;  (** wall-clock at collection ({!Clock.wall}) *)
  elapsed_s : float;  (** widest span extent, 0 with no spans *)
  metrics : Metric.entry list;
  spans : Span.record list;  (** [start_s] relative to report start *)
}

val collect : command:string -> unit -> t
(** Snapshot the registry and drain finished spans.  Draining means a
    second [collect] only sees spans finished since the first. *)

val to_json : t -> json
val of_json : json -> (t, string) result

val pp : Format.formatter -> t -> unit
(** Human-readable summary: indented span tree with durations and GC
    deltas, then counters, gauges and histogram quantiles. *)
