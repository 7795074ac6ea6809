(** [tecore serve] — a long-lived daemon multiplexing many incremental
    sessions over the line-oriented wire protocol of {!Protocol}.

    Architecture (see [docs/SERVER.md]):

    - a {e session registry} keyed by client id: each [hello CLIENT-ID]
      attaches the connection to a {!Tecore.Session.t} with its own
      incremental {!Tecore.Engine.state}, so a client's 1-fact edit
      always takes the warm replay path;
    - one {e connection thread} per accepted socket reads length-bounded
      lines, parses them totally, executes cheap edits inline (under the
      session's lock) and routes [resolve] through admission control;
    - {e resolver lanes}: [resolve] requests run on one of [lanes]
      resolver threads. Each session is affinity-pinned to a lane by a
      stable (FNV-1a) hash of its id, so a session's resolves execute
      in submission order by construction, while sessions on different
      lanes no longer head-of-line-block each other. The solve itself
      is serialised across lanes behind a single lock (the shared
      domain {!Prelude.Pool} stays single-tenant), so engine results —
      and response bytes — are independent of the lane count. The
      default of one lane preserves the previous single-resolver
      behaviour exactly;
    - {e admission control}: a bounded run queue (the lanes' sub-queues
      under one global budget) in front of the resolver lanes.
      When the pending count exceeds the bound the request is shed
      immediately with a typed [overloaded] response — the queue never
      grows without bound. A per-request budget (when configured) sheds
      requests whose budget expired while queued with a typed
      [timed_out] response and disciplines the solve itself through the
      existing {!Prelude.Deadline} machinery;
    - {e live metrics}: [serve_*] gauges and counters merged into the
      {!Obs} OpenMetrics exposition, served from the [metrics] verb
      while the server runs (not at exit).

    Nothing a client sends can kill the accept loop: unexpected
    exceptions inside a request are contained as typed [internal]
    errors and the connection stays usable. *)

module Journal = Journal
(** Re-export: the durability layer (see {!Journal}), so callers can
    name [Serve.Journal.fsync_policy] without linking the internal
    module path. *)

module Protocol = Protocol
(** Re-export: the wire protocol, for tests and embedding clients. *)

module Access_log = Access_log
(** Re-export: the structured access-log format, writer and offline
    analyzer (see {!Access_log}), shared by the server, the [tecore
    logstat] subcommand and the tests. *)

type config = {
  engine : Tecore.Engine.engine;  (** engine for every resolve *)
  jobs : int option;
      (** worker domains for the grounding joins ([None]:
          [TECORE_JOBS], else 1 — the {!Tecore.Engine.resolve} default) *)
  queue_cap : int;
      (** admission bound: a resolve is shed when the number of pending
          resolves (queued + running) exceeds this. [0] means "shed
          whenever busy". *)
  request_timeout_ms : float option;
      (** per-request budget. It covers queue wait (expired-before-run
          requests are shed with a typed [timed_out] error) and, for
          the part that remains, the solve itself via
          {!Prelude.Deadline} — note a finite deadline bypasses the
          incremental caches, so warm-path service normally runs
          without one. [None] (default): no budget. *)
  max_line_bytes : int;
      (** requests longer than this are refused with a typed parse
          error (the rest of the oversized line is discarded; the
          connection stays usable) *)
  allow_shutdown : bool;
      (** whether the [shutdown] verb is honoured (the CLI enables it;
          library/test servers default to [false]) *)
  max_sessions : int option;
      (** session-registry bound: when a [hello] would create a session
          past this cap, the least-recently-used session is evicted
          (counted in [serve_sessions_evicted_total]). Connections still
          attached to an evicted session get a typed [evicted] error on
          their next use and must [hello] again. [None] (default): no
          bound. *)
  state_dir : string option;
      (** durability root. When set, every session keeps a write-ahead
          journal under [STATE_DIR/sessions/]: accepted edits are
          journaled before they are acked, [start] rebuilds the registry
          by replaying every session directory (tolerating torn tails —
          see {!Journal}), and [hello]/[stat] responses gain durability
          fields. [None] (default): in-memory only, byte-identical
          responses to previous releases. *)
  fsync : Journal.fsync_policy;
      (** journal fsync policy (default {!Journal.Always}: an acked edit
          survives SIGKILL). Snapshots and manifests are always
          fsynced. *)
  compact_every : int;
      (** compact a session's journal into a fresh snapshot once this
          many records accumulate since the last snapshot ([<= 0]
          disables size-triggered compaction; [load] still forces
          one). *)
  idle_ttl_s : float option;
      (** idle-session TTL in seconds. Sessions idle past it are expired
          by a janitor thread (counted in
          [serve_sessions_expired_total]): parked to disk when
          [state_dir] is set (a later [hello] recovers them
          transparently), discarded otherwise. Attached connections get
          a typed [expired] error on their next use. [None] (default):
          sessions never expire. *)
  access_log : string option;
      (** when set, every traced request appends one JSON-lines record
          to this file (see {!Access_log}): request id, session, verb,
          outcome, wall time and the per-phase breakdown. [None]
          (default): no log. *)
  access_log_max_bytes : int;
      (** access-log rotation threshold (default 4 MiB; clamped
          to >= 1024) — see {!Access_log.open_writer} *)
  access_log_keep : int;  (** rotated access-log files kept (default 3) *)
  trace_every : int;
      (** initial request-trace sampling period: [0] off, [1] every
          request, [N] every Nth (by request id). [0] with [access_log]
          set starts at [1] instead — an access log that logs nothing
          would be a trap. Adjustable at runtime with the [trace] verb.
          Traced requests carry their request id as a ["req"] field in
          the response; untraced requests keep their exact previous
          response bytes. *)
  lanes : int;
      (** resolver lanes (clamped to >= 1). Sessions are pinned to a
          lane by a stable hash of their id; more lanes let independent
          sessions overlap everything but the solve itself. With more
          than one lane, [stat] responses and traced access-log records
          gain a [lane] field and the exposition gains per-lane rows;
          at the default of [1] the server is byte-identical to the
          previous single-resolver release. *)
}

val default_config : config
(** [Auto] engine, env-default jobs, queue bound 64, no budget, 1 MiB
    line cap, shutdown disabled, unbounded sessions, no state dir
    (fsync [Always], compaction at 256 records when one is set), no
    idle TTL, no access log, tracing off, and [TECORE_LANES] resolver
    lanes (default 1) — the env override exists so the whole serve test
    matrix can re-run multi-lane, like [TECORE_JOBS] for the pool. *)

type listen = [ `Tcp of int | `Unix of string ]
(** [`Tcp port] binds 127.0.0.1:[port] ([0] picks a free port);
    [`Unix path] binds a Unix-domain socket at [path] (an existing
    socket file there is replaced). *)

type t

val start : ?config:config -> listen -> t
(** Bind, spawn the accept and resolver threads, and return. With
    [state_dir] set, first rebuilds the session registry by recovering
    every session directory (replaying snapshots and journals; torn or
    corrupt content degrades to a typed recovery status, never an
    exception); a session whose recovery still raises (say, an
    unreadable file) is skipped with one [warning:] line on stderr,
    and a later [hello] for it retries. Raises [Unix.Unix_error] when
    the address cannot be bound. *)

val address : t -> string
(** Human-readable bound address ("127.0.0.1:PORT" or the socket
    path). *)

val connect : t -> Unix.file_descr
(** A fresh loopback client socket connected to this server. The
    scripted driver uses it; outside this library only tests do, as
    {!address} is a display string and a server bound to [`Tcp 0]
    offers no other handle on its port. *)

val lane_of_session : t -> string -> int
(** The lane a session id is pinned to: a stable 32-bit FNV-1a hash
    modulo the lane count. Total for any string (empty, huge and
    non-ASCII ids included) and always in [[0, lanes)]. The
    [lane_collide:L] fault point (TECORE_FAULTS) overrides it to
    [L mod lanes] for every id — the test hook for forcing hash
    collisions. *)

val busy : t -> bool
(** Whether any resolver lane is executing a request right now. *)

val shed_count : t -> int
(** Requests shed by admission control since [start]. *)

val requests_total : t -> int
(** Requests parsed off all connections since [start]. *)

val recent_records : t -> Access_log.record list
(** The traced requests still in the [tail] ring (up to 64), oldest
    first. The [tail] verb reads it; outside this library only tests
    do, after {!stop}, when the ring holds the last request's record
    and the wire can no longer be asked. *)

val metrics_text : t -> string
(** Live OpenMetrics exposition: the whole {!Obs} report (span times,
    counters, solver histograms) plus [serve_sessions_open],
    [serve_queue_depth], per-lane [serve_lane_depth{lane=...}] gauges
    (queued + running) and [serve_lane_requests_total{lane=...}]
    counters, [serve_requests_total{outcome=...}],
    [serve_shed_total], [serve_sessions_evicted_total],
    [serve_sessions_expired_total], [serve_sessions_recovered_total],
    [serve_uptime_seconds], per-phase [serve_request_phase_ms]
    summaries (p50/p95 + [_sum]/[_count], fed by traced requests;
    quantiles computed exactly like {!Access_log.stats}, so a complete
    access log reproduces them) and per-session
    [serve_session_requests_total{session=...}] counters, terminated by
    [# EOF]. Passes {!Obs.Export.validate_metrics}. *)

val request_stop : t -> unit
(** Ask the server to stop (signal-handler safe: only sets a flag; the
    accept loop notices within its poll interval). *)

val stop : t -> unit
(** Stop and reclaim: close the listener and every connection, drain
    the run queue (queued jobs are answered with a typed
    [shutting_down] error), join all threads. Idempotent. *)

val wait : t -> unit
(** Block until {!request_stop} (or an honoured [shutdown] verb) fires,
    then run {!stop}. The CLI's foreground mode. *)

(** Scripted loopback client — drives a live server over a real socket
    and prints a deterministic transcript, for the [data/serve_*.golden]
    tests. Commands, one per line ([#] comments):

    {v
    connect NAME            open a client connection called NAME
    send NAME REQUEST       send REQUEST, wait for and print the response
    post NAME REQUEST       send REQUEST without waiting
    recv NAME               read and print one pending response
    await-busy              block until the resolver is executing
    await-idle              block until the queue is empty and idle
    close NAME              close NAME's socket
    v} *)
module Driver : sig
  val run :
    server:t ->
    Format.formatter ->
    path:string ->
    string ->
    (unit, Tecore.Script.error) result
  (** Execute a driver script against [server], printing
      ["NAME> request"] / ["NAME< response"] transcript lines. Errors
      (unknown client names, malformed driver lines, await timeouts)
      halt with a located error in the [path:line:column] convention. *)

  (**/**)

  type dcmd =
    | Connect of string
    | Send of string * string
    | Post of string * string
    | Recv of string
    | Await_busy
    | Await_idle
    | Close of string

  val parse_line :
    path:string ->
    line:int ->
    string ->
    (dcmd option, Tecore.Script.error) result
  (** One driver line — exposed for tests. *)
end
