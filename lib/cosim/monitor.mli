(** Online guarantee monitor: checks a co-simulation trace against the
    very guarantees the dimensioning was verified for.

    Three watchdogs per application:
    - settling time — every disturbance must settle within [J*];
    - wait budget — the application must never wait past [T*_w]
      (entering the scheduler's [Error] phase);
    - dwell table — every completed slot tenure granted at wait [T_w]
      must last at least [T⁻_dw(T_w)] and at most [T⁺_dw(T_w)]
      (blackout evictions cut dwells short; a nominal run can violate
      neither).

    In a nominal run of a verified group all three hold by
    construction; under fault injection the monitor pinpoints which
    application lost which guarantee, and when. *)

type violation =
  | Settling_exceeded of { sample : int; j : int option; j_star : int }
      (** disturbance at [sample] settled in [j] samples ([None]: not
          within the trace) against budget [j_star] *)
  | Wait_overrun of { sample : int }
      (** entered [Error]: waited past [T*_w] *)
  | Dwell_cut_short of { sample : int; wt : int; dwell : int; dt_min : int }
      (** tenure granted at wait [wt] ended at [sample] after only
          [dwell] samples, below [T⁻_dw(wt)] *)
  | Dwell_overrun of { sample : int; wt : int; dwell : int; dt_max : int }
  | Suppressed_arrival of { sample : int }
      (** a disturbance arrived while the application could not accept
          it (fault-world overload) *)

type app_verdict = {
  name : string;
  violations : violation list;  (** chronological *)
}

type report = {
  verdicts : app_verdict list;  (** one per application, in id order *)
  bus_ok : bool;
      (** the transport-level facts held (always [true] without a bus
          replay) *)
  ok : bool;  (** no violations anywhere, bus included *)
}

val check :
  ?summary:Engine.fault_summary ->
  ?bus:Bus_check.result ->
  apps:Core.App.t list ->
  Trace.t ->
  report
(** Run all watchdogs over the trace.  [summary] (from
    {!Engine.run_with_faults}) contributes the suppressed-arrival
    verdicts; without it only trace-derivable violations are reported.
    [bus] (from {!Engine.replay_on_bus}) adds the transport-level
    watchdog: the TT/ET delay facts must survive the replayed traffic.
    Emits [monitor.*] metrics to {!Obs} when observability is on. *)

val total_violations : report -> int

val count : report -> [ `Settling | `Wait | `Dwell | `Suppressed ] -> int
(** Violations of one kind across all applications. *)

val pp : Format.formatter -> report -> unit
val pp_violation : Format.formatter -> violation -> unit
