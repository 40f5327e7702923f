(** FlexRay as a {!Bus.BACKEND}: TT channels are static slots, ET
    flows are dynamic frame ids with sizes in minislots, simulated by
    {!Sim}. *)

val backend : Bus.backend
val configured : Config.t -> Bus.configured

val default : Bus.configured
(** The 2 ms phase-aligned cycle the bus-delay check has always used
    (10 × 100 µs static + 250 × 4 µs dynamic): sampling instants at
    h = 20 ms land exactly on cycle boundaries, as the paper's
    negligible-TT-delay assumption requires.  Other cycles (e.g.
    {!Config.default_automotive}) go through {!configured}. *)
