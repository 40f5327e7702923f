(** System-level co-simulation: all TT slots of a mapping at once.

    Slot groups are electrically independent (each TDMA slot has its
    own arbiter), so the system run is the product of per-slot runs;
    the value of this layer is the system-wide bookkeeping — routing
    each disturbance to the slot its application was mapped to,
    checking every requirement in one place, and reporting per-slot
    utilisation. *)

type report = {
  slots : (string list * Trace.t) list;
      (** per slot: member names (in id order) and the slot's trace *)
  settlings : (string * int * int option) list;
      (** (app, disturbance sample, settling in samples) *)
  all_requirements_met : bool;
  tt_samples : (string * int) list;  (** TT usage per application *)
}

val run :
  slots:Core.App.t list list ->
  disturbances:(int * string) list ->
  horizon:int ->
  report
(** @raise Invalid_argument on an app name not present in any slot, an
    app present in two slots, or invalid per-slot scenarios (see
    {!Scenario.make}). *)

val bus_validate :
  bus:Bus.configured -> ?loss:Bus.loss -> ?h_us:int -> report -> Bus_check.result
(** Replay the whole system's traffic on the chosen transport (see
    {!Bus_check.validate_slots}). *)

val of_mapping :
  Core.Mapping.outcome ->
  disturbances:(int * string) list ->
  horizon:int ->
  report
(** Convenience wrapper over a first-fit mapping outcome. *)

val pp : Format.formatter -> report -> unit
