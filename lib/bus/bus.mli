(** The transport seam: an abstract BUS signature that every network
    backend ([Flexray.Backend], [Ttw.Backend]) implements on these
    message types, plus first-class backend values so callers pick the
    transport at runtime.

    The co-simulation layer talks about {e messages}: a message is
    either time-triggered — bound to a contention-free channel the
    backend serves at a fixed point of its cycle (a FlexRay static
    slot, a reserved TTW round slot) — or event-triggered, contending
    for shared bandwidth under fixed-priority arbitration (the FlexRay
    dynamic segment, the free slots of a TTW round).  Backends simulate
    delivery, report per-message latency and transmission attempts, and
    answer the worst-case response-time query slot sizing needs.

    Loss is declarative: a {!loss} hook decides, per transmission
    attempt, whether the medium destroys it.  Hooks are pure functions
    of the message and attempt number, so outcomes never depend on
    simulation order, and the provided constructors derive them from
    {!Faults.Plan} masks or the seeded {!Faults.Prng} stream — the same
    machinery that drives fault-aware co-simulation. *)

type cls =
  | Tt of { channel : int }
      (** contention-free reserved channel, 0-based; delivery latency
          is deterministic for phase-aligned releases *)
  | Et of { flow : int; size : int }
      (** contended flow, 1-based id = priority (lower id wins);
          [size] is in backend bandwidth units (FlexRay minislots, TTW
          data slots) *)

type message = { cls : cls; release_us : int }

type delivery = {
  message : message;
  delivered_us : int;  (** end of the successful transmission *)
  attempts : int;  (** transmissions used; 1 = first try succeeded *)
}

type outcome = {
  deliveries : delivery list;  (** in delivery order *)
  undelivered : (message * int) list;
      (** not delivered within the horizon, with attempts burned *)
  lost_tx : int;  (** transmissions destroyed by the loss hook *)
}

type loss = message -> attempt:int -> bool
(** [loss m ~attempt] is [true] when the medium destroys the
    [attempt]-th transmission (1-based) of [m].  Must be pure. *)

module type BACKEND = sig
  val name : string
  (** the name [--bus] selects the backend by, e.g. ["flexray"] *)

  type config

  val default_config : config

  val config_info : config -> string
  (** one-line human description of the cycle structure *)

  val cycle_us : config -> int
  (** period of the TDMA structure: FlexRay cycle, TTW round *)

  val tt_channels : config -> int
  (** capacity query: contention-free channels served per cycle *)

  val et_capacity : config -> int
  (** contended bandwidth units available per cycle (FlexRay
      minislots, free TTW round slots) *)

  val control_frame_size : config -> int
  (** bandwidth units one per-sample control message occupies on this
      medium — what slot sizing budgets per application *)

  val simulate :
    ?loss:loss -> config -> until_us:int -> message list -> outcome
  (** Run the bus until [until_us].  A destroyed transmission keeps
      its message queued for the next service opportunity.
      @raise Invalid_argument on malformed submissions: negative
      release, channel outside [0, tt_channels), flow ids < 1, or
      sizes outside [1, et_capacity]. *)

  val wcrt_us : config -> flow:int -> size:int -> hp:(int * int) list -> int option
  (** Worst-case response time of an ET message of [flow]/[size] under
      higher-priority interferers given as [(size, period_us)] pairs;
      [None] when the flow can be starved forever. *)
end

type backend = (module BACKEND)

type configured =
  | Configured :
      (module BACKEND with type config = 'c) * 'c
      -> configured
      (** a backend packed with a concrete configuration — what the
          co-simulation layer passes around *)

(* -------------------------------------------------------------- *)
(* Message constructors *)

val tt : channel:int -> release_us:int -> message
(** @raise Invalid_argument on negative channel or release. *)

val et : ?size:int -> flow:int -> release_us:int -> unit -> message
(** [size] defaults to 1.
    @raise Invalid_argument on flow < 1, size < 1 or negative release. *)

val delay_us : delivery -> int
(** Delivery latency [delivered_us - release_us]. *)

(* -------------------------------------------------------------- *)
(* First-class backend helpers *)

val name : backend -> string
val default : backend -> configured

val configured_name : configured -> string
val info : configured -> string
val cycle_us : configured -> int
val tt_channels : configured -> int
val et_capacity : configured -> int
val control_frame_size : configured -> int
val simulate : ?loss:loss -> configured -> until_us:int -> message list -> outcome
val wcrt_us : configured -> flow:int -> size:int -> hp:(int * int) list -> int option

(* -------------------------------------------------------------- *)
(* Loss hooks *)

val loss_none : loss
(** Never destroys anything — the wired nominal medium. *)

val loss_of_plan : h_us:int -> Faults.Plan.t -> loss
(** The fault plan's ET-loss masks as link loss: the first attempt of
    an ET message of flow [f] (1-based scenario app id [f - 1])
    released at sample [k = release_us / h_us] is destroyed when
    [plan.et_loss.(f-1).(k)].  TT messages are never touched — slot
    blackouts are an arbitration-level fault, not a medium loss. *)

val loss_bernoulli : seed:int64 -> p:float -> loss
(** Independent loss with probability [p] per transmission attempt,
    drawn from a {!Faults.Prng} child stream keyed by (class, release,
    attempt) — pure, order-independent, reproducible. *)

val loss_burst : seed:int64 -> p:float -> len:int -> loss
(** Correlated fading: with probability [p] (keyed by class and
    release) a message's first [len] transmission attempts are all
    destroyed — the wireless burst-loss model. *)
