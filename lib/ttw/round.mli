(** Round-accurate TTW simulation over the generic {!Bus} message
    model: reserved head slots serve TT channels, contended slots are
    packed first-fit in ascending flow-id order, one message per flow
    per round, and a destroyed transmission retries in a later round. *)

val simulate :
  ?loss:Bus.loss ->
  Config.t ->
  until_us:int ->
  Bus.message list ->
  Bus.outcome
(** @raise Invalid_argument on negative releases, TT channels outside
    the reservation, flow ids below 1, empty ET frames, or ET frames
    larger than the contended segment. *)
