(** Persistent append-only key/value store for verification artifacts.

    One store is one file.  The file starts with a header line naming
    the format version and a caller-supplied {e salt} (an engine
    fingerprint); every record after it is length-prefixed and
    checksummed, so keys and values may contain any byte, including
    newlines and the delimiters of whatever serialisation the caller
    uses.  The whole file is loaded into an in-memory index at
    {!open_}; {!add} appends to the file immediately.

    Robustness rules, all applied at {!open_}:

    - a file whose header carries a {e different} salt is stale: every
      record is dropped (counted in [stale_dropped]) and the file is
      rewritten empty under the current salt — this is the explicit
      invalidation lever: bump the salt whenever the semantics of the
      cached values change;
    - a torn tail (a crash mid-append) or a checksum mismatch drops the
      damaged record {e and everything after it}, then compacts the
      file so later appends land on a clean suffix;
    - rewrites (invalidation, compaction, {!clear}) go through a
      temporary file in the same directory followed by a rename, so a
      crash never leaves a half-rewritten store;
    - a non-empty file that does not carry the magic header is refused
      ({!open_} returns [Error]) rather than silently overwritten.

    Duplicate keys keep the first occurrence (values are pure functions
    of their key, so any duplicate is identical).  All operations are
    mutex-protected and safe to share across domains.

    Cross-process writes are single-writer: {!open_} takes an advisory
    exclusive lock on a sibling [.lock] file, and a process that loses
    the race (say a one-shot CLI run while a resident daemon owns the
    cache) degrades to {e read-only} — it loads the clean records,
    keeps its own {!add}s in memory only, and never heals, invalidates
    or appends, so two processes cannot interleave records in one
    file.  {!read_only} reports which side of the race this handle is
    on. *)

type t

type stats = {
  entries : int;  (** live keys in the index *)
  loaded : int;  (** records read from disk at [open_] *)
  stale_dropped : int;  (** records discarded by a salt mismatch *)
  torn_dropped : int;  (** records discarded as damaged/torn *)
  appended : int;  (** records appended since [open_] *)
}

val format_version : int

val fnv64 : string -> string
(** 64-bit FNV-1a of the bytes as 16 lower-case hex digits: the record
    checksum (it detects torn or bit-flipped records, it is no defence
    against an adversary). *)

val open_ : path:string -> salt:string -> (t, string) result
(** Open (creating if missing) the store at [path] under [salt].
    [Error] when the file exists but is not a store, on IO failure, or
    when [salt] contains a newline. *)

val path : t -> string
val salt : t -> string

val read_only : t -> bool
(** [true] when another process already holds the writer lock: this
    handle serves the loaded records and memoises fresh {!add}s in
    memory, but never writes the file. *)

val find : t -> string -> string option
val mem : t -> string -> bool

val add : t -> string -> string -> unit
(** Insert and append to disk.  A key already present is left untouched
    (first write wins).  IO errors are swallowed: the entry stays in
    the in-memory index and the run continues uncached-on-disk. *)

val length : t -> int
val stats : t -> stats

val iter : t -> (string -> string -> unit) -> unit
(** Iterate over the live index (order unspecified), under the lock. *)

val clear : t -> unit
(** Drop every entry and crash-safely rewrite the file empty. *)

val flush : t -> unit
val close : t -> unit

val peek : path:string -> (string * int, string) result
(** [(salt, records)] of an existing store file, read-only: no
    invalidation, no compaction, no creation.  Damaged records count
    as absent. *)
