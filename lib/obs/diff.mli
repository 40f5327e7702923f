(** Report comparison for the perf-regression harness
    ([cpsdim report diff OLD.json NEW.json]).

    Reports flatten to [key -> float] series: counters and gauges by
    name, histograms expanded to [name.n]/[.min]/[.max]/[.mean]/
    [.p50]/[.p90]/[.p99], plus the top-level [elapsed_s].  Each key is
    classified on two axes:

    - {e class} — [Timing] (wall-clock measurements: base name ends in
      [_s] or mentions [per_sec]/[speedup]/[elapsed]) vs
      [Deterministic] (state counts, cache hit mixes, sample counts —
      anything that must reproduce across machines).  A timing
      histogram's [.n] is Deterministic: the sample {e count} is exact
      bookkeeping even when the samples are measurements — unless
      either report declares the histogram measured
      ({!Metric.histogram}), as the domain pool does for its
      per-domain and idle histograms, whose counts follow the
      scheduler.
    - {e direction} — whether growth is good ([per_sec], [speedup],
      [hit]), bad (durations, [dropped], [miss]) or neither.

    The two classes take separate tolerances, so CI can gate
    deterministic metrics tightly against committed baselines from a
    different machine while leaving timing ungated (or loosely gated)
    to avoid flakes. *)

type metric_class = Timing | Deterministic
type direction = Higher_better | Lower_better | Neutral

type change = {
  key : string;
  cls : metric_class;
  dir : direction;
  old_v : float option;  (** [None]: key only in the new report *)
  new_v : float option;  (** [None]: key vanished from the new report *)
  delta_pct : float;
      (** [100 * (new - old) / |old|]; [infinity] when [old = 0] and
          [new <> 0]; [nan] when either side is absent *)
}

val flatten : Report.t -> (string * float) list
(** The comparable series of a report, in metric order. *)

val classify : ?measured:bool -> string -> metric_class * direction
(** [measured] (default [false]): the key belongs to a histogram
    declared measured, so its [.n] classifies as [Timing]. *)

val compare_reports :
  old_report:Report.t -> new_report:Report.t -> change list
(** All keys of both reports, sorted by key.  Keys present on one side
    only appear with the other side [None]. *)

type status = Pass | Regression | Missing | Added

val status_of : ?gate:float -> ?timing_gate:float -> change -> status
(** [gate] is the tolerance (in percent) for [Deterministic] keys,
    [timing_gate] for [Timing] keys; omitting a gate leaves that whole
    class ungated ([Pass]).  A gated key fails when it moved against
    its direction by more than the tolerance (both directions for
    [Neutral]), or when it vanished ([Missing]).  Keys new in the
    right-hand report are [Added] — informational, never failing. *)

val regressions :
  ?gate:float -> ?timing_gate:float -> change list -> change list
(** The changes whose {!status_of} is [Regression] or [Missing]. *)

val pp_change : Format.formatter -> change -> unit
(** One aligned line: key, old -> new, delta, class and direction. *)
