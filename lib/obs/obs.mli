(** Zero-dependency observability for the TeCoRe pipeline.

    The library keeps one implicit stack of hierarchical spans per
    domain. Code under measurement wraps stages in {!span} and drops
    {!count}, {!gauge}, {!record}, {!sample} and {!event} calls wherever
    interesting quantities are produced; metrics attach to the innermost
    open span of the calling domain. When observation is disabled (the
    default) every entry point reduces to a single flag test, so
    instrumentation can stay in hot paths permanently.

    The domain that last called {!reset} owns the main span stack; any
    other domain that opens a span (in practice: {!Prelude.Pool} crew
    workers, via the per-task hook this library installs at load time)
    collects into its own lane, reported as a top-level ["workers/<i>"]
    subtree. All entry points are serialised by an internal mutex and
    safe to call from any domain.

    Typical use:

    {[
      Obs.set_enabled true;
      let result = Obs.span "resolve" (fun () -> run ()) in
      let report = Obs.Report.capture () in
      Format.printf "%a" Obs.Report.pp report
    ]} *)

val enabled : unit -> bool
(** Whether spans and metrics are being collected. *)

val set_enabled : bool -> unit
(** Turn collection on or off. Turning it on does not reset previously
    collected data; call {!reset} for a clean slate. *)

val reset : unit -> unit
(** Drop all collected spans, metrics, worker lanes and events, restart
    the wall clock, and make the calling domain the owner of the main
    span stack. Any spans currently open are abandoned (their exit is
    ignored). *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a span called [name]. Spans nest:
    spans opened while [f] runs become children of this one. The span is
    closed even when [f] raises. Repeated spans with the same name under
    the same parent are merged at {!Report.capture} time (their call
    counts and durations accumulate). On a domain other than the main
    stack's owner the span lands in that domain's ["workers/<i>"] lane.
    Whether or not collection is enabled, a span also records its
    elapsed time into the calling thread's installed {!Phases.ctx}, if
    any. Disabled and with no context installed: tail-calls [f]. *)

val count : ?n:int -> string -> unit
(** [count name] bumps the counter [name] of the innermost open span by
    [n] (default 1). Counters accumulate over merged spans. *)

val add : string -> float -> unit
(** Like {!count} with a float increment. *)

val gauge : string -> float -> unit
(** [gauge name v] sets gauge [name] of the innermost open span to [v];
    the most recent write wins, also across merged spans. *)

val record : string -> float -> unit
(** [record name v] appends an observation to histogram [name] of the
    innermost open span. *)

val set_trace : (depth:int -> string -> float -> unit) option -> unit
(** Install a hook invoked at every span close with the span's depth
    (0 = top level), name and elapsed milliseconds — children report
    before their parents. [None] uninstalls. The hook only fires while
    collection is enabled. *)

(** Timestamped, leveled, key-value events — the structured log. *)
module Events : sig
  type level = Debug | Info | Warn | Error

  type value = Int of int | Float of float | Str of string | Bool of bool

  type event = {
    t_ms : float;  (** milliseconds since the last {!reset} *)
    level : level;
    name : string;
    fields : (string * value) list;
  }

  val severity : level -> int
  (** [Debug] = 0 up to [Error] = 3, for threshold filtering. *)

  val level_name : level -> string
  (** ["debug"], ["info"], ["warn"], ["error"]. *)

  val value_to_string : value -> string
end

val event : ?level:Events.level -> string -> (string * Events.value) list -> unit
(** [event ~level name fields] appends an event to the bounded ring
    buffer (default level [Info]). When the ring is full the oldest
    event is dropped and the drop counter bumped, so the newest
    [capacity] events are always retained. Disabled: no-op. *)

val set_event_hook : (Events.event -> unit) option -> unit
(** Install a hook invoked synchronously on every {!event} emission (the
    CLI's [--log-level] streams to stderr through this). The hook runs
    under the internal mutex: it must not call back into [Obs]. [None]
    uninstalls. *)

(** Bounded sample reservoir with quantile queries, used for
    solver-iteration metrics (flips per solve, nodes per MILP call, ...)
    and the server's per-phase latency histograms. Storage is exact up
    to [cap] samples; past that it degrades to a uniform reservoir
    (deterministic Vitter algorithm R), so quantiles below the cap are
    exact, quantiles above are estimates, and memory stays O(cap)
    however long the stream runs. [count], [total], [mean], [minimum]
    and [maximum] are exact for the whole stream regardless. *)
module Histogram : sig
  type t

  val create : ?cap:int -> unit -> t
  (** [cap] is the retained-sample bound (default 4096, clamped
      to >= 1). *)

  val add : t -> float -> unit
  val count : t -> int
  (** Samples offered, including reservoir-displaced ones. *)

  val total : t -> float
  val mean : t -> float
  (** [nan] when empty. *)

  val minimum : t -> float
  val maximum : t -> float

  val stored : t -> int
  (** Samples currently retained ([<= capacity]). *)

  val quantile : t -> float -> float
  (** Nearest-rank quantile over the retained samples: [quantile h q]
      with [q] clamped to [0, 1] returns the smallest retained sample
      s.t. at least [ceil (q * stored)] retained samples are [<=] it
      ([q = 0] gives the minimum). Exact while [count <= capacity].
      [nan] when empty. *)

  val merge : t -> t -> t
  (** A new histogram holding both sample sets, never aliasing either
      input, with capacity [max (capacity a) (capacity b)]. When the
      combined retained samples exceed that capacity they are decimated
      at a fixed stride, so merging is deterministic: merging the same
      pair twice gives identical histograms. Stream-exact fields
      ([count], [total], [minimum], [maximum]) combine exactly. *)

  val to_list : t -> float list
  (** Retained samples in insertion order (up to reservoir
      displacement). *)
end

(** Per-request phase accumulators, the server-side complement to the
    process-wide span tree: a {!Phases.ctx} installed with
    {!with_phases} captures the elapsed time of every {!span} and
    {!phase} run by the installing thread, whether or not global
    collection is enabled. [tecore serve] uses one context per traced
    request to attribute its latency to
    parse/queue/lock/ground/solve/journal/fsync/reply. *)
module Phases : sig
  type ctx

  val create : ?only:string list -> unit -> ctx
  (** A fresh, empty context. With [only], spans whose name is not
      listed are ignored (the server's filter against non-taxonomy
      engine spans); nested captured spans attribute to the outermost
      one, so e.g. a cutting-plane re-ground inside ["solve"] is not
      double-counted. *)

  val record : ctx -> string -> float -> unit
  (** Append a directly-measured [(phase, elapsed-ms)] entry, bypassing
      the [only] filter (used for queue wait, which is computed from
      timestamps rather than a bracket). *)

  val entries : ctx -> (string * float) list
  (** Captured entries in insertion order. *)
end

val with_phases : Phases.ctx -> (unit -> 'a) -> 'a
(** [with_phases ctx f] installs [ctx] as the calling {e systhread}'s
    phase context for the duration of [f] (restoring any previously
    installed one afterwards, so nesting is safe). While installed,
    {!span} and {!phase} on this thread record into [ctx]. A context
    may be handed between threads — the server installs the same
    request context on the connection thread and, for the solve, on the
    resolver thread — but must only be installed on one running thread
    at a time. *)

val phase : string -> (unit -> 'a) -> 'a
(** [phase name f] times [f ()] into the calling thread's installed
    phase context. Unlike {!span} it never touches the global span
    tree, so it is safe on server connection threads even while
    process-wide collection is enabled. Without an installed context it
    tail-calls [f]. *)

(** Bounded [(x, y)] timeline for convergence curves. Downsampling is by
    decimation (drop every other kept point and double the stride when
    the buffer fills), so the retained points are a subsequence of the
    input — monotone inputs stay monotone — and memory is O(cap) however
    many samples are offered. The most recent sample is always
    retained. *)
module Series : sig
  type t

  val create : ?cap:int -> unit -> t
  (** [cap] is the retention bound (default 512, clamped to >= 8). *)

  val add : t -> x:float -> y:float -> unit

  val count : t -> int
  (** Samples offered, including downsampled-away ones. *)

  val points : t -> (float * float) list
  (** Retained points in insertion order, ending at the most recent
      sample. *)

  val merge : t -> t -> t
  (** Points of both series, re-sorted by [x] (stable), re-bounded. *)
end

val sample : string -> t_ms:float -> v:float -> unit
(** [sample name ~t_ms ~v] appends a point to series [name] of the
    innermost open span. [t_ms] is an absolute {!Prelude.Timing.now_ms}
    timestamp; it is stored relative to the last {!reset}, so points
    from repeated solver invocations stay globally ordered. Disabled:
    no-op. *)

(** A minimal JSON tree: enough to emit reports, parse them back (for
    round-trip tests and benchmark validation), and build ad-hoc
    documents without external dependencies. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering. A finite number is the shortest of
      %.12g/%.15g/%.16g/%.17g that [float_of_string] reads back exactly;
      non-finite numbers render as [null]. *)

  val parse : string -> (t, string) result
  (** Strict parser for the subset above (no trailing garbage). Numbers
      that do not denote a finite float (e.g. ["1e999"]) are rejected.
      Errors mention the byte offset. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] otherwise. *)
end

(** Aggregated view of everything collected since the last {!reset}. *)
module Report : sig
  type node = {
    name : string;
    calls : int;
    total_ms : float;
    counters : (string * float) list;  (** sorted by name *)
    gauges : (string * float) list;
    hists : (string * Histogram.t) list;
    series : (string * Series.t) list;
    children : node list;
    slices : (float * float) list;
        (** per call: (start offset from the last {!reset}, duration)
            in ms — the raw intervals behind {!Export.chrome_trace} *)
  }

  type t = {
    wall_ms : float;  (** wall time since the last {!reset} *)
    counters : (string * float) list;  (** recorded outside any span *)
    gauges : (string * float) list;
    hists : (string * Histogram.t) list;
    series : (string * Series.t) list;
    spans : node list;
        (** completed top-level spans, then one ["workers/<i>"] node per
            domain that opened spans of its own *)
    events : Events.event list;  (** oldest first *)
    events_dropped : int;
  }

  val capture : unit -> t
  (** Snapshot of all {e completed} top-level spans (still-open spans
      are not included) plus root-level metrics, worker lanes and the
      event log. Does not reset. *)

  val find : t -> string list -> node option
  (** [find t path] follows span names from the top, e.g.
      [find t ["resolve"; "ground"]]. *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable stage tree with timings, metrics (histograms with
      p50/p95/max), series summaries and an event-count footer. *)

  val to_json : t -> Json.t
  (** Events and series appear only when non-empty, so reports from
      runs that emit neither are unchanged from earlier releases. *)
end

(** Machine-consumable renderings of a captured {!Report.t}. *)
module Export : sig
  val chrome_trace : Report.t -> Json.t
  (** Chrome [trace_event] document (an object with a [traceEvents]
      array of complete ["X"] events carrying [name/cat/ph/ts/dur/pid/
      tid], timestamps in microseconds). Load it in [chrome://tracing]
      or Perfetto. The coordinator's spans appear on [tid] 0 and each
      ["workers/<i>"] lane on [tid] [i + 1], so parallel sections show
      true per-worker utilisation. *)

  val validate_trace : ?min_lanes:int -> Json.t -> (unit, string) result
  (** Structural check used by CI: non-empty [traceEvents], every event
      a complete ["X"] event with non-negative [ts]/[dur], and at least
      [min_lanes] (default 1) distinct [tid] lanes. *)

  type family = {
    name : string;  (** the [# TYPE] name *)
    kind : string;  (** ["counter"], ["gauge"] or ["summary"] *)
    rows : (string * (string * string) list * float) list;
        (** samples: a suffix appended to [name] (e.g. ["_total"],
            ["_sum"]), labels in order, value *)
  }
  (** One OpenMetrics metric family. A family without rows renders
      nothing. Values print like {!Json.number} ([NaN]/[+Inf]/[-Inf]
      when not finite), so an integral count prints as an integer. *)

  val summary_rows :
    quantiles:float list ->
    (string * string) list ->
    Histogram.t ->
    (string * (string * string) list * float) list
  (** [summary_rows ~quantiles labels h]: one [quantile]-labelled row per
      quantile, then [_sum] and [_count] — the rows of a summary
      family. *)

  val open_metrics : ?families:family list -> Report.t -> string
  (** OpenMetrics/Prometheus text exposition of the whole report:
      span times and call counts ([tecore_span_ms_total],
      [tecore_span_calls_total]) labelled with their span path,
      counters/gauges, histograms as summaries with [quantile] labels
      plus [_sum]/[_count], series sizes and last values, event counts
      per level, then [families] (default none), terminated by
      [# EOF]. Suitable for the node_exporter textfile collector. *)

  val validate_metrics : string -> (unit, string) result
  (** Small OpenMetrics grammar check used by CI: every line is a
      well-formed metadata line ([# TYPE]/[# HELP]/[# UNIT]) or sample
      line (name, optional labels, float value), and the exposition ends
      with [# EOF]. *)
end
