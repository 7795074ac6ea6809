(** Structured JSON-lines access log for [tecore serve].

    One record per traced request. The writer is shared by all
    connection threads (each line is written atomically under a lock)
    and rotates by size: when appending a record would push the live
    file past [max_bytes] it is renamed to [FILE.1] (existing rotations
    shifting to [FILE.2] ... [FILE.keep], the oldest discarded) and a
    fresh file is started. Like the session journal, the log is
    append-only, so a crash mid-write can only damage the final line;
    the reader skips such a torn tail with a typed warning instead of
    failing. *)

type record = {
  req : int;  (** server-assigned request id: unique, monotone *)
  ts : float;  (** Unix epoch seconds at request completion *)
  session : string option;
      (** session bound to the connection, once [hello] succeeded *)
  lane : int option;
      (** resolver lane the session is pinned to; only emitted by
          servers running with more than one lane ([--lanes]) *)
  verb : string;  (** first keyword of the request, or ["invalid"] *)
  outcome : string;  (** ["ok"] or the typed error kind *)
  wall_ms : float;
  phases : (string * float) list;
      (** elapsed ms per phase, in {!phase_names} order; phases that did
          not occur are absent (treat as zero) *)
}

val phase_names : string list
(** The phase taxonomy in canonical reporting order:
    parse, queue, lock, ground, solve, journal, fsync, reply. *)

val in_phase_order : (string, 'a) Hashtbl.t -> (string * 'a) list
(** The table's bindings for the phases that occur, in {!phase_names}
    order. *)

val add_phases :
  (string, Obs.Histogram.t) Hashtbl.t -> (string * float) list -> unit
(** Add one record's phase timings to per-phase histograms — the fold
    behind both {!stats} and the server's live summaries. *)

val record_to_json : record -> Obs.Json.t

(** {1 Writer} *)

type writer

val open_writer : path:string -> max_bytes:int -> keep:int -> writer
(** Open (creating or appending to) the log at [path]. [max_bytes] is
    clamped to >= 1024, [keep] (rotated files retained) to >= 1. Raises
    [Unix.Unix_error] when the path cannot be opened. *)

val write : writer -> record -> unit
(** Append one record as a single line, rotating first if it would
    overflow the live file. Thread-safe. Raises [Unix.Unix_error] on
    I/O failure. *)

val close_writer : writer -> unit

(** {1 Reader / analyzer} *)

type warning =
  | Torn_tail of { line : int }
      (** the final line is incomplete or unparsable — the signature of
          a crash mid-append — and was skipped *)
  | Bad_record of { line : int; reason : string }
      (** a non-final line failed to parse or validate *)

val warning_to_string : warning -> string

val read_file : string -> record list * warning list
(** All parsable records of one log file in order, plus typed warnings
    for every skipped line. Raises [Sys_error] when the file cannot be
    read. *)

type stats = {
  total : int;
  wall : Obs.Histogram.t;
  phase_hists : (string * Obs.Histogram.t) list;
      (** per-phase latency histograms in {!phase_names} order, only
          for phases that occur; built with {!Obs.Histogram}, so
          quantiles match the server's live [serve_request_phase_ms]
          summaries exactly when computed over the same records *)
  slowest : record list;  (** top-N by [wall_ms], slowest first *)
}

val stats : ?top:int -> record list -> stats
(** Aggregate records (default [top] = 10 slowest retained). *)
