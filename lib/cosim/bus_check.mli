(** Bus-level validation of a co-simulated system, over any transport.

    The control layer relies on exactly two facts about the network:
    TT messages (reserved channels) arrive with a fixed, negligible
    delay, and ET messages (contended traffic) arrive within one
    sampling period even in the worst case.  This module re-plays slot
    traces as actual bus traffic — every application transmits one
    control message per sample, on its group's TT channel while it owns
    the slot and as a contended flow otherwise — runs the backend's
    cycle-accurate simulator, and checks both facts on the measured
    delays.  An optional {!Bus.loss} hook injects medium loss, whose
    effect (retransmission delay, undelivered messages) is accounted in
    the result. *)

val backends : Bus.backend list
(** Every built-in transport, the reference FlexRay first: the names
    [--bus] accepts ("flexray", "ttw") and the backends the conformance
    battery runs over. *)

type result = {
  backend : string;  (** transport that carried the traffic *)
  messages : int;  (** messages offered to the bus *)
  delivered : int;
  tt_count : int;
  et_count : int;
  tt_delay_us : int * int;  (** (min, max) measured TT delays *)
  et_delay_us : int * int;  (** (min, max) measured ET delays *)
  h_us : int;
  tt_deterministic : bool;
      (** within each TT channel, every delivery has the same latency *)
  one_sample_ok : bool;
      (** every delivered ET delay fits one period and no ET message
          was left undelivered *)
  all_delivered : bool;
  lost_tx : int;  (** transmissions destroyed by the loss hook *)
  et_overruns : int;  (** delivered ET messages later than one period *)
  max_attempts : int;  (** worst retransmission count over all traffic *)
}

val validate_slots :
  bus:Bus.configured ->
  ?loss:Bus.loss ->
  ?h_us:int ->
  (string list * Trace.t) list ->
  result
(** Replay per-slot traces on the bus.  The TT channel of group [i] is
    channel [i]; ET flow ids follow the system-wide application order
    (1-based), matching the fault plan's app indexing so
    {!Bus.loss_of_plan} lines up.
    @raise Invalid_argument when the backend has fewer TT channels
    than there are groups, or its contended segment cannot carry one
    control frame per application. *)

val facts_hold : result -> bool
(** The two control-layer facts plus full delivery. *)

val pp : Format.formatter -> result -> unit
