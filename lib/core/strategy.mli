(** Mode sequences generated by the paper's switching strategy.

    After a disturbance at sample 0, the application runs in mode [ME]
    for [t_w] samples (waiting for the TT slot), then in mode [MT] for
    [t_dw] samples (holding the slot), then in [ME] again forever.

    {!response} and {!settling} simulate the experiment from sample 0
    over the whole horizon and scan the trace afterwards.  They are the
    reference that {!Control.Settle_kernel}, which computes every dwell
    table, margin and baseline parameter, is tested against; nothing
    else in the library calls them. *)

val mode_at : t_w:int -> t_dw:int -> int -> Control.Switched.mode
(** The mode of sample [k] under a wait of [t_w] and a dwell of [t_dw].
    @raise Invalid_argument on negative [t_w]/[t_dw]. *)

val pure : Control.Switched.mode -> int -> Control.Switched.mode
(** A constant-mode sequence (dedicated slot, or ET only). *)

val response :
  ?horizon:int ->
  Control.Plant.t ->
  Control.Switched.gains ->
  t_w:int ->
  t_dw:int ->
  float array
(** Output trace of the canonical disturbance experiment
    ([x0 = e_1], [u_prev = 0]) under the switching sequence, over
    [horizon] samples (default [t_w + t_dw + 400], long enough for
    settling decisions). *)

val settling :
  ?horizon:int ->
  Control.Plant.t ->
  Control.Switched.gains ->
  t_w:int ->
  t_dw:int ->
  int option
(** Settling index (in samples) of {!response}; [None] when the trace
    has not settled by the horizon. *)
