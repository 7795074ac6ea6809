(** The wire protocol of [tecore serve].

    Line-delimited framing: a request is one LF-terminated line of
    bytes, a response is exactly one LF-terminated line back (responses
    that are logically multi-line — a diff, a metrics exposition — are
    carried as JSON-escaped strings). The request language embeds the
    session edit-script language of {!Tecore.Script} — [load], [assert],
    [retract], [rule]/[constraint], [unrule], [resolve], [diff] — plus
    server verbs:

    {v
    hello CLIENT-ID        attach to (or create) the session CLIENT-ID
    open                   start from an empty in-memory graph
    stat                   session statistics (facts, rules, caches)
    result                 full JSON payload of the last resolution
    metrics                live OpenMetrics dump of the whole server
    ping                   liveness probe
    quit                   close this connection
    shutdown               stop the server (when enabled)
    trace on|off|N         set request-trace sampling (N = every Nth)
    tail [K]               the K most recent traced requests (default 10)
    v}

    Responses are ["ok <json-object>"] or ["err <json-object>"]; the
    error object always carries a [kind], the request's [line] (its
    1-based sequence number on the connection) and [column], and a
    [message]. Parsing is total: every byte sequence yields a typed
    response, never an escaping exception (fuzzed in
    [test/test_fuzz.ml]).

    The wire shares the edit language with [tecore session --script]
    and the journal's crash replay: requests split with the one
    {!Tecore.Script.split_keyword} (blanks are space, tab and CR), edit
    commands parse with {!Tecore.Script.parse_command} and run through
    the one executor {!Tecore.Script.apply}. *)

type request =
  | Hello of string
  | Open_
  | Cmd of Tecore.Script.command
  | Stat
  | Result_
  | Metrics
  | Ping
  | Quit
  | Shutdown
  | Trace of int
      (** request-trace sampling period: [0] off, [1] every request,
          [N] every Nth ([trace on] = 1, [trace off] = 0) *)
  | Tail of int  (** the K most recent traced requests *)

type error_kind =
  | Parse  (** the request line does not parse *)
  | Exec  (** the request parsed but failed to execute *)
  | Rejected  (** the translator rejected the program *)
  | Overloaded  (** admission control shed the request (bounded queue) *)
  | Timed_out  (** the request's budget expired before it ran *)
  | Evicted
      (** the connection's session was LRU-evicted under
          [--max-sessions]; re-attach with [hello] *)
  | Expired
      (** the connection's session sat idle past [--idle-ttl]; with a
          state dir it was parked to disk and [hello] recovers it,
          otherwise it was discarded *)
  | Storage
      (** the session's write-ahead journal hit an IO failure; the edit
          applied in memory but is no longer durable (see
          [docs/SERVER.md]) *)
  | Shutting_down  (** the server is stopping *)
  | Internal  (** contained unexpected failure; the connection survives *)

type error = { kind : error_kind; line : int; column : int; message : string }

val error : error_kind -> line:int -> string -> error
(** An error located at column 1 of request [line] — every error but a
    parse error, which points at the offending column. *)

val strip_cr : string -> string
(** Drop one trailing [\r], so LF and CRLF clients look the same. *)

val parse_request : line:int -> string -> (request, error) result
(** Total parser for one request line ([line] is the request's sequence
    number on its connection, echoed into error locations). A trailing
    [\r] is stripped, so both LF and CRLF clients work. Blank and
    comment lines are an error on the wire (there is no transcript to
    skip them in). *)

val request_verb : request -> string
(** The request's first keyword — the [verb] field of access-log
    records (script commands report their command word, e.g.
    ["assert"] or ["resolve"]). *)

val ok_line : (string * Obs.Json.t) list -> string
(** ["ok <compact-json-object>"] — the fields in the given order. *)

val err_line : error -> string
(** ["err {\"kind\":...,\"line\":...,\"column\":...,\"message\":...}"];
    the kind is the constructor's lowercase name (["parse"], ["exec"],
    ..., ["timed_out"], ["shutting_down"], ["internal"]). *)

val with_request_id : req:int -> string -> string
(** Splice [{"req":N}] in as the first field of a rendered response
    line's JSON object — how a traced request's id is echoed without
    re-rendering the payload. *)
