(** Memory-efficient storage of dwell-time tables.

    The paper notes (Sec. 5) that the [T⁻_dw]/[T⁺_dw] arrays "can be
    stored in a memory-efficient way exploiting the fact that they take
    only a few values" — relevant because the lookup tables live on a
    resource-constrained ECU.  This module provides the run-length
    encoding that remark suggests, plus a compact textual serialisation
    for persisting whole tables. *)

type rle = (int * int) list
(** [(value, repeat)] pairs, repeats >= 1, in order. *)

val encode : int array -> rle
val decode : rle -> int array

val encoded_words : rle -> int
(** Storage cost of the encoding (two machine words per run). *)

val distinct_values : int array -> int

val dictionary_words : int array -> int
(** Storage cost (64-bit words) of a dictionary encoding: one word per
    distinct value plus [ceil(log2 k)] bits per entry — the encoding
    the paper's "take only a few values" remark suggests, which also
    handles alternating tables that defeat run-length coding. *)

val version : int
(** The serialisation format, 2: a version tag and the table's
    [stride] lead the header. *)

val table_to_string : Dwell.t -> string
(** One-line textual serialisation of a full dwell table (header
    integers plus run-length encoded arrays), in the current format. *)

val table_of_string : string -> (Dwell.t, string) result
(** Inverse of {!table_to_string}; validates with {!Dwell.validate}. *)
