(** JSON rendering of resolution results.

    The demo's browser front-end consumes resolution results over the
    wire; this module is that data contract: a self-contained, dependency
    free JSON serialisation of facts, resolutions and run statistics,
    used by the CLI's [--json] mode and by anything embedding TeCoRe as
    a service. *)

val of_quad : ?namespace:Kg.Namespace.t -> Kg.Quad.t -> string

val of_resolution : ?namespace:Kg.Namespace.t -> Conflict.resolution -> string
(** Object with [kept], [removed] (fact array), [derived] (atom,
    confidence and quad form when it exists) and [conflicting] (fact id
    array). *)

val of_result :
  ?namespace:Kg.Namespace.t ->
  ?deadline:Prelude.Deadline.t ->
  ?obs:Obs.Report.t ->
  Engine.result ->
  string
(** The full payload: engine, statistics and the resolution. When [obs]
    is given, the captured observability report is embedded under an
    ["obs"] key (see {!Obs.Report.to_json}). When [deadline] is given
    and finite, a ["deadline"] object reports the completion [status]
    (["completed"|"timed_out"|"degraded"]), whether the budget
    [expired], and the [budget_ms]/[slack_ms] pair; without one the
    payload is byte-identical to earlier releases. *)
