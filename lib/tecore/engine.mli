(** The TeCoRe facade: one call from UTKG + rules to a conflict-free KG.

    [resolve] is the demo's headline operation, [map(θ(G), F ∪ C)]: pick
    an engine (the expressive MLN path or the scalable nPSL path), run MAP
    inference, and interpret the state as a resolution. *)

type engine =
  | Mln of Mln.Map_inference.options
  | Psl of Psl.Npsl.options
  | Auto
      (** follow the translator's recommendation with default options *)

type run_stats = {
  engine_used : Translator.engine_choice;
  atoms : int;
  ground_ms : float;
  solve_ms : float;
  total_ms : float;
  hard_violations : int;
      (** >0 means the hard constraints are unsatisfiable even after
          removals (e.g. two conflicting confidence-1.0 facts) *)
  objective : float;
      (** MAP objective: satisfied soft weight (MLN) or hinge-loss energy
          (PSL). The differential oracle compares it exactly between
          incremental and fresh resolves *)
  status : Prelude.Deadline.status;
      (** anytime outcome of the solve stage: always [Completed] when no
          deadline was set; [Timed_out] when the budget expired but the
          returned resolution is hard-constraint-sound; [Degraded] when
          a worker crashed, the exact→MaxWalkSAT ladder fired, or the
          timed-out answer violates hard constraints *)
}

val choice_name : Translator.engine_choice -> string
(** ["mln"] or ["psl"] — the spelling used in transcripts, [--json]
    output and the server's wire responses. *)

type raw = {
  store : Grounder.Atom_store.t;
  instances : Grounder.Ground.instances;
  assignment : bool array;
}
(** The grounding artefacts behind a result, for downstream analyses
    (explanations, marginals) that need more than the resolution. *)

type result = {
  resolution : Conflict.resolution;
  report : Translator.report;
  stats : run_stats;
  raw : raw;
}

exception Rejected of Translator.report
(** Raised when the translator finds an [Error]-level problem. *)

exception Ground_timed_out of Translator.report
(** Raised when the deadline expires during grounding under
    [`Fail]: grounding has no sound partial answer (a half-saturated
    store silently drops constraints), so the run is rejected with a
    structured report — the original translator report plus an
    [Error]-level note recording how far the closure got. *)

(** {1 Incremental resolution}

    [resolve ~mode:`Incremental ~state ~delta] reuses work across
    resolves of an edited graph. Three layers of caching, each proven
    result-preserving (see [docs/INCREMENTAL.md] and the differential
    oracle in [test/test_incremental.ml]):

    - a {e result cache}: an empty delta returns the previous result;
    - a {e grounding snapshot}: fact edits replay the previous grounding
      exactly, re-joining only transitively affected rules
      ({!Grounder.Ground.reground});
    - {e component solution caches}: the solvers run per connected
      component and memoise solutions by canonical structural form, so
      untouched components are never re-solved.

    The contract is strict identity: an incremental resolve returns the
    same resolution, objective, raw store/instances/assignment, and
    conflict report as a from-scratch [`Fresh] resolve of the same graph
    and rules, for every engine and job count. *)

type delta = {
  facts : Logic.Atom.Ground.t list;
      (** ground atoms of the facts asserted or retracted since the last
          resolve *)
  rules_changed : bool;
      (** whether the rule list changed; [true] forces full invalidation *)
}

type cache_outcome =
  | Hit          (** empty delta: previous result returned as-is *)
  | Replay       (** delta grounding replayed, solver caches consulted *)
  | Miss         (** no usable state yet: fresh resolve, state recorded *)
  | Invalidate   (** rules or options changed: caches dropped, fresh *)
  | Bypass       (** finite deadline: incremental machinery skipped *)
  | Fallback     (** replay failed mid-flight: fresh resolve instead *)
  | Fresh_run    (** caller asked for [`Fresh]; state still recorded *)

val outcome_name : cache_outcome -> string
(** Lowercase tag used in [incr.*] counters and session transcripts. *)

type state
(** Mutable incremental state: the grounding snapshot, the last result,
    the engine options and threshold it was produced under, and the per-engine
    component solution caches. Create one per logical session; a state
    must not be shared across concurrently running resolves. *)

val create_state : unit -> state

val invalidate : state -> unit
(** Drop everything: snapshot, cached result, configuration, and both
    component solution caches. The next resolve is a [Miss]. *)

val last_outcome : state -> cache_outcome option
(** How the most recent resolve against this state used the caches;
    [None] before the first stateful resolve. *)

type cache_stats = {
  solve_entries : int;
  solve_hits : int;
  solve_misses : int;
}

val cache_stats : state -> cache_stats
(** Combined component-solution cache counters (MLN + PSL). *)

val resolve :
  ?engine:engine ->
  ?jobs:int ->
  ?threshold:float ->
  ?deadline:Prelude.Deadline.t ->
  ?on_timeout:[ `Fail | `Best_effort ] ->
  ?mode:[ `Fresh | `Incremental ] ->
  ?state:state ->
  ?delta:delta ->
  Kg.Graph.t ->
  Logic.Rule.t list ->
  result
(** One pipeline, [map(θ(G), F ∪ C)], whatever the arguments: translate
    (rejecting Error-level programs with {!Rejected}); choose the engine;
    ground once inside the ["ground"] span — build the atom store, then
    close and ground the rules ({!Grounder.Ground.run}, or
    {!Grounder.Ground.reground} on an incremental replay); encode and
    solve with the engine's [run_ground]; interpret the MAP state
    ({!Conflict.interpret}); apply [threshold]; and, with a state,
    record the grounding as the snapshot, and the result.
    [stats.ground_ms] therefore includes the atom-store build, and every
    resolve reports the same span tree: [resolve] → [translate],
    [ground] ([closure], [instances]), [encode], [solve], [round] (nPSL
    only), [interpret].

    [threshold] filters derived facts by confidence after resolution
    (defaults to keeping all). Default engine is [Auto].

    [jobs] sets the worker-domain count for the grounding joins (0 =
    all cores, see {!Prelude.Pool.create}); defaults to
    {!Prelude.Pool.default_jobs} — the [TECORE_JOBS] environment
    variable, else 1. Components are always solved on the calling
    domain, and the result is the same at every job count (see
    {!Prelude.Pool} for the determinism contract).

    [deadline] (default {!Prelude.Deadline.none}) bounds the run.
    [on_timeout] (default [`Best_effort]) picks the policy:

    - [`Best_effort]: grounding always completes (no sound partial
      grounding exists) and the remaining budget disciplines the
      solver, which runs component by component as without a budget and
      returns its best incumbent on expiry; components reached after
      expiry keep their initial state without searching. The result's
      [stats.status] reports [Timed_out] or [Degraded]; the exact
      backends degrade to MaxWalkSAT when their budget slice expires
      before optimality is proved. Even an already-expired deadline
      yields a sound (or explicitly [Degraded]) resolution.
    - [`Fail]: grounding polls the deadline too; expiry during
      grounding raises {!Ground_timed_out}. Callers treat any
      non-[Completed] status as failure.

    A deadline decides only when the solve stops, never which code
    runs: a [Completed] budgeted resolve returns exactly the unbudgeted
    resolution and objective. With a finite [deadline] the Obs report
    also gains [deadline.expired], [deadline.budget_ms] and
    [deadline.slack_ms].

    [mode] (default [`Fresh]) and [state]/[delta] drive incremental
    resolution. Without [state] nothing is cached: no snapshot is
    recorded and the solvers get no component cache. With [state] and
    an infinite [deadline], the call records its grounding snapshot and
    result into the state; under [`Incremental] it additionally
    consults them, guided by [delta] (absent [delta] is treated
    conservatively as "rules changed"). A finite [deadline] drops the
    state for the call ([Bypass]): a budgeted solve is not a pure
    function of the problem, so nothing it produces may be cached. Any
    failure inside the incremental machinery (including an injected
    [incr_timeout] fault) invalidates the state and falls back to a
    correct fresh resolve — never a stale cache. Emits [incr.<outcome>]
    counters and an [incr.resolve] event per stateful call. *)

val pp_result : Format.formatter -> result -> unit
