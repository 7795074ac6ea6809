(** The demo workflow as a library — TeCoRe's Web UI without the browser.

    A session mirrors the interface of Figures 3, 5 and 8: select a UTKG,
    add inference rules and constraints (with predicate auto-completion
    against the loaded KG), run conflict resolution, and browse the
    consistent and conflicting statements and the statistics panel. The
    CLI in [bin/] drives exactly this API. *)

type t

type error =
  | Io_error of string
      (** file could not be read; the message always names the path *)
  | Parse_error of string
      (** malformed input; the message locates the failure as
          [path:line:column] (column when the lexer knows it) *)
  | Rejected of Translator.report
      (** the translator found an [Error]-level problem *)
  | Ground_timeout of Translator.report
      (** the deadline expired during grounding under [`Fail] — the
          report carries the structured partial-grounding note *)
  | No_graph  (** no knowledge graph selected *)
  | Absent_fact of string
      (** {!retract} found no live fact with that statement *)

val error_message : error -> string
(** Render an error the way the string-result functions below do. *)

val create : unit -> t

val namespace : t -> Kg.Namespace.t

(** {1 Data selection} *)

val load_graph : t -> Kg.Graph.t -> unit

val load : t -> string -> (unit, error) result
(** Load a UTKG file with typed errors: [Io_error] always names the
    offending path, [Parse_error] locates the failure as
    [path:line:column]. *)

val load_string : t -> string -> (unit, string) result
val graph : t -> Kg.Graph.t option

(** {1 Fact edits}

    Sessions track the fact/rule delta since the last resolve; the next
    {!resolve} with [~mode:`Incremental] hands it to the engine, which
    re-grounds only the affected rules and re-solves only the touched
    components. *)

val assert_fact : t -> Kg.Quad.t -> (Kg.Graph.id, error) result
(** Insert a fact into the loaded graph and record it in the delta.
    [No_graph] when nothing is loaded. *)

val retract : t -> Kg.Quad.t -> (Kg.Graph.id, error) result
(** Remove the oldest live fact with the same statement (same triple and
    interval — duplicates are legal in a UTKG) and record it in the
    delta. [Absent_fact] when no live fact matches. *)

(** {1 Rules and constraints editor} *)

val add_rules : t -> string -> (Logic.Rule.t list, string) result
(** Parse declarations in the rule language and add them; returns the
    newly added rules. *)

val remove_rule : t -> string -> bool
(** Remove by name; false when absent. *)

val rules : t -> Logic.Rule.t list

val complete_predicate : t -> string -> string list
(** Auto-completion for the constraints editor (Figure 5): predicates of
    the loaded KG starting with the prefix. *)

val dump_state : t -> string list
(** The session's durable state as replayable script lines: [@prefix]
    directives for the namespace, [open] when a graph is loaded, one
    [rule]/[constraint] declaration per rule and one [assert] line per
    live fact (in insertion order, so retract tie-breaking survives a
    round-trip). Floats render through {!Prelude.Floatlit} so weights
    and confidences reparse bit-identically. This is the body the
    server's journal writes at snapshot compaction (see
    [docs/SERVER.md]). *)

val analyse : t -> (Translator.report, string) result
(** The translator's verification pass for the current selection. *)

(** {1 Running and browsing results} *)

val resolve :
  ?engine:Engine.engine ->
  ?jobs:int ->
  ?threshold:float ->
  ?deadline:Prelude.Deadline.t ->
  ?on_timeout:[ `Fail | `Best_effort ] ->
  ?mode:[ `Fresh | `Incremental ] ->
  t ->
  (Engine.result, error) result
(** Runs resolution with typed errors and stores the result in the
    session; [deadline]/[on_timeout] as in {!Engine.resolve}. A
    translator rejection maps to [Rejected], a grounding timeout under
    [`Fail] to [Ground_timeout].

    [mode] (default [`Fresh]) selects incremental resolution: the
    session passes its accumulated fact/rule delta and its
    {!Engine.state} to the engine, which reuses the previous grounding
    and component solutions where provably identical. On success the
    delta is cleared; on error it is kept for the next attempt. Both
    modes return identical results — [`Incremental] is purely a
    performance mode (see [docs/INCREMENTAL.md]). *)

val cache_outcome : t -> Engine.cache_outcome option
(** How the last resolve used the incremental caches (see
    {!Engine.cache_outcome}); [None] before the first resolve. *)

val engine_state : t -> Engine.state
(** The session's incremental state (for cache statistics). *)

val pending_edits : t -> int
(** Fact edits (asserts and retracts) recorded in the delta since the
    last successful resolve — what the next [`Incremental] resolve will
    replay. The server's [stat] verb surfaces this. *)

val rules_dirty : t -> bool
(** Whether the rule list changed since the last successful resolve
    (forcing the next incremental resolve to invalidate its caches). *)

val run :
  ?engine:Engine.engine ->
  ?jobs:int ->
  ?threshold:float ->
  t ->
  (Engine.result, string) result
(** {!resolve} with the error rendered through {!error_message}. *)

val last_result : t -> Engine.result option

val consistent_statements : t -> Kg.Quad.t list
(** Facts of the conflict-free expanded KG (empty before a run). *)

val conflicting_statements : t -> Kg.Quad.t list
(** The removed facts (browsable list of Figure 8). *)

val statistics : t -> string
(** The statistics panel as rendered text. *)
