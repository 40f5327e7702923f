(** Cycle-accurate FlexRay bus simulation over the generic {!Bus}
    message model.

    A TT channel is a static slot: its message goes out in that slot of
    the next cycle whose slot start is at or after the release.  An ET
    flow is a dynamic frame id, which doubles as its arbitration
    priority (lower id transmits earlier in the dynamic segment), with
    its size in minislots.  The simulator reports per-message delivery
    times, from which the deterministic TT delay and the jittery ET
    delay of the paper can be measured directly.

    The [loss] hook models a lossy medium: a destroyed transmission
    burns its slot (static) or minislots (dynamic) but the message stays
    queued and retries at its next opportunity. *)

val simulate :
  ?loss:Bus.loss -> Config.t -> until_us:int -> Bus.message list -> Bus.outcome
(** Run the bus until [until_us].  Several pending static messages for
    the same slot are served oldest-first, one per cycle; a destroyed
    transmission keeps its message at the head of the queue.
    @raise Invalid_argument on negative release times, static slots out
    of range, frame ids below 1, empty frames, or dynamic frames longer
    than the whole segment. *)
