(** Control-performance margins of a verified slot group.

    Verification answers a yes/no question; this analysis extracts the
    quantitative story behind a "yes".  The exhaustive exploration
    records, per application, the worst wait at which the slot was ever
    granted ({!Dverify.stats}); combined with the dwell tables, that
    yields the exact worst-case settling time the group can exhibit —
    and hence how much of the budget [J*] is actually consumed, i.e.
    how much headroom the dimensioning leaves.  A group whose margins
    are all large is a candidate for taking on more applications; a
    zero margin means the slot is dimensioned exactly tight, which is
    the paper's goal. *)

type row = {
  name : string;
  j_star : int;
  worst_wait : int option;  (** largest grant wait reachable; [None] if
                                the app is never granted *)
  worst_settling : int option;
      (** worst-case J in samples: the maximum settling over every wait
          up to the observed worst and every admissible dwell at that
          wait.  An upper bound on the exact worst case (some
          intermediate waits may be unreachable), tight in practice,
          and guaranteed [<= j_star] whenever the group verifies
          safe. *)
  margin : int option;  (** [j_star - worst_settling] *)
}

type report = { rows : row list; safe : bool }

val analyse : App.t list -> report
(** Exhaustively verify the group and derive the margins.  When the
    group is unsafe, [safe] is false and the rows are meaningless
    (exploration stops at the first counterexample). *)

val pp : Format.formatter -> report -> unit
