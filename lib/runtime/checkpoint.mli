(** Checkpoint journal: an append-only log of completed campaign runs.

    Each record is a (key, payload) pair framed as a Marshal envelope with
    a magic string and format version, preceded by the envelope's byte
    length and digest.  On [start], the valid prefix of an existing journal
    is loaded: reading stops at the first frame whose length overruns the
    file or whose digest does not match, and everything from there on (a
    crash mid-append, and any frames written after it) is truncated away,
    so a journal is always safe to resume from.  Appends are mutex-protected and flushed immediately, making the
    journal crash-consistent record by record. *)

type t

val start : path:string -> fresh:bool -> t
(** Open the journal at [path].  [fresh:true] discards any existing
    records; [fresh:false] resumes, keeping the valid prefix. *)

val restored : t -> int
(** Number of records loaded from disk at [start] time. *)

val find : t -> key:string -> string option
(** Payload previously recorded for [key] (restored or appended). *)

val append : t -> key:string -> payload:string -> unit
(** Record a completed unit of work.  Thread/domain-safe.  A key appended
    twice keeps the latest payload on lookup (so a record re-appended
    after journal damage converges).  Best-effort on an unwritable path:
    lookups still work, persistence is lost. *)

val tear : t -> bytes:int -> unit
(** Chop [bytes] off the end of the journal file, simulating a crash
    mid-append.  In-memory state is untouched; the damage only matters to
    a later [start], which truncates back to the last whole frame and lets
    the campaign recompute the lost tail.  Exists for the fault-injection
    harness ([Faultin]). *)

val entries : t -> (string * string) list
(** All records, restored and appended, in journal order. *)

val close : t -> unit
