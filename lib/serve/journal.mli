(** Per-session write-ahead journal with snapshot compaction and
    kill-resilient recovery — the durability layer behind
    [tecore serve --state-dir] (see [docs/SERVER.md]).

    {2 On-disk layout}

    Each session owns one directory under [STATE_DIR/sessions/], named
    by a percent-encoding of its client id:

    {v
    MANIFEST          current generation (written atomically: tmp +
                      rename + directory fsync)
    snapshot.<gen>    coalesced state dump at the start of generation
                      <gen> (absent for generation 0: the empty session)
    journal.<gen>     accepted edits since that snapshot, append-only
    v}

    {2 Record format}

    Snapshot and journal files share one total frame format:

    {v
    frame := length(4B BE) crc32(4B BE) payload '\n'
    v}

    where [payload] is a line of the {!Tecore.Script} command syntax
    (plus the [open] verb and [@prefix] directives for state dumps) and
    [crc32] is IEEE CRC-32 of the payload. The trailing newline keeps
    journals greppable; it is part of the frame but not of the payload.

    {2 Crash model}

    A write-ahead record is appended (and fsynced, per policy) {e
    before} the server acknowledges the edit, so under {!Always} an
    acked edit survives SIGKILL. A crash mid-append leaves a torn final
    frame; {!recover} truncates the journal at the first bad frame and
    reports {!Partial}. Deeper damage — a corrupt snapshot or manifest —
    degrades to {!Unrecoverable}: recovery still returns a usable
    (empty) session, re-initialises the directory at a fresh generation
    and leaves the damaged files in place for inspection. Recovery never
    raises on corrupt {e content}; it is a total function of the bytes
    on disk. *)

type fsync_policy =
  | Always  (** fsync after every appended record (the default) *)
  | Every of int  (** fsync once per [n] appended records *)
  | Never  (** leave flushing to the OS page cache *)

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** ["always"], ["never"], or a positive integer [N] for [Every N]. *)

val fsync_policy_name : fsync_policy -> string

type t
(** An open journal handle. Not thread-safe on its own: the server
    serialises all access through the owning session's lock. (The
    cross-session {!group} state is the one exception — it carries its
    own lock, so appends on different sessions may pool their fsync
    budget concurrently.) *)

type group
(** A cross-session commit group. Handles {!attach}ed to one pool
    their [Every n] fsync budget: the threshold counts pending
    (acked-but-unsynced) appends across the {e whole group}, and
    crossing it fsyncs every dirty member behind one flush pass — a
    group commit. This turns the per-session durability bound of
    [Every n] (up to [n - 1] unsynced edits {e per session}) into a
    server-wide bound ([n - 1] unsynced edits in total), and lets
    resolver lanes batch their fsyncs instead of each session paying
    its own. [Always] and [Never] policies ignore the group. *)

val create_group : unit -> group

val attach : t -> group -> unit
(** Join a commit group. Thread-safe; a handle belongs to at most one
    group ({!close} detaches it). *)

val group_commits : group -> int
(** Completed group-commit flush passes since {!create_group}. *)

type status =
  | Full  (** every record replayed; the journal tail was clean *)
  | Partial of { dropped_bytes : int; replayed : int }
      (** a torn or corrupt frame was found; the journal was truncated
          at the first bad frame ([dropped_bytes] discarded) and the
          session holds the [replayed]-record prefix *)
  | Unrecoverable of string
      (** the manifest or snapshot itself is corrupt; the session is
          empty and the directory was re-initialised at a fresh
          generation (damaged files are left in place) *)

val status_name : status -> string
(** ["full"], ["partial"], ["unrecoverable"]. *)

type recovery = {
  session : Tecore.Session.t;
  journal : t;
  status : status;
}

val session_dir : state_dir:string -> string -> string
(** The directory that holds (or would hold) a client id's state. *)

val list_sessions : state_dir:string -> string list
(** Decoded client ids of every session directory under [state_dir],
    sorted. Missing [state_dir] is an empty listing. *)

val create :
  state_dir:string ->
  fsync:fsync_policy ->
  compact_every:int ->
  string ->
  t
(** Initialise a fresh session directory (generation 0, empty journal)
    for the given client id and return its open handle. Raises
    [Sys_error]/[Unix.Unix_error] when the directory cannot be
    created — environmental failures are the caller's problem, unlike
    corrupt content. *)

val recover :
  state_dir:string ->
  fsync:fsync_policy ->
  compact_every:int ->
  string ->
  recovery
(** Rebuild a session from its directory: replay [snapshot.<gen>] then
    [journal.<gen>], tolerating a torn tail (see {!status}). Total on
    corrupt content; environmental IO failures while re-opening for
    append leave the handle in a failed state whose {!append} raises. *)

type timing = {
  write_ms : float;  (** writing the framed record *)
  fsync_ms : float option;
      (** flushing it to disk, a group flush included; [None] when the
          policy did not sync on this append *)
}

val append : t -> string -> timing
(** Frame and append one accepted edit, fsyncing per policy, and report
    where the time went (the server's [journal] and [fsync] phases). Raises
    [Sys_error] on IO failure (the server surfaces this as a typed
    [storage] error and stops journaling the session). The
    [journal_torn:K] fault point (TECORE_FAULTS) makes the K-th append
    of this handle write only a prefix of its frame and then stall, so
    crash tests can SIGKILL the process mid-write, deterministically. *)

val records_since_snapshot : t -> int
(** Appended (or replayed-from-tail) records since the last snapshot —
    the compaction trigger counter. *)

val appends : t -> int
(** Records appended through this handle's lifetime (the fault-point
    index). *)

val compact : t -> string list -> unit
(** Write the given state-dump lines as [snapshot.<gen+1>], switch to a
    fresh empty [journal.<gen+1>], atomically advance the manifest and
    delete the previous generation's files. A crash at any point leaves
    either the old or the new generation fully intact. *)

val maybe_compact : t -> (unit -> string list) -> bool
(** Run {!compact} when the record counter has reached the handle's
    [compact_every] threshold; returns whether it did. *)

val close : t -> unit
(** Fsync (best-effort), leave any commit {!group} and release the
    fd. Idempotent. *)

val write_all : Unix.file_descr -> bytes -> int -> int -> unit
(** [write_all fd b ofs len] writes [len] bytes of [b] from [ofs],
    looping over short writes. The one write loop of the server: the
    journal, the access log and the wire's replies use it. *)

(**/**)

val replay_line :
  Tecore.Session.t -> line:int -> string -> (unit, string) result
(** Apply one record payload to a session — exposed for tests. *)

val crc32 : string -> int
(** IEEE CRC-32 (the frame checksum) — exposed for tests. *)

val encode_id : string -> string

val decode_id : string -> string option
