(** nPSL: the numerically-extended PSL path of TeCoRe, end to end.

    Mirrors {!Mln.Map_inference} on the scalable side: θ-translate the
    UTKG, ground relationally (numeric and Allen conditions are evaluated
    during grounding — the "numerical extension on top of PSL" the paper
    describes), build the hinge-loss MRF, run consensus ADMM, round. *)

type options = {
  config : Hlmrf.config;
  max_iters : int;
}
(** Plain data: equal options give equal answers. The runtime resources
    of a solve (deadline, component cache) are arguments of
    {!run_ground}. *)

val default_options : options
(** Default HL-MRF config and 2,000 ADMM iterations. ADMM always runs
    with step size 1.0 and tolerance 1e-4, and rounds at threshold
    0.5. *)

type stats = {
  atoms : int;
  ground_ms : float;
  solve_ms : float;
  admm : Admm.stats;
  rounding : Rounding.stats;
  status : Prelude.Deadline.status;
      (** anytime outcome of the solve stage (from {!Admm.solve}) *)
}

type outcome = {
  assignment : bool array;   (** rounded MAP state per atom id *)
  truth : float array;       (** continuous MAP state per atom id *)
  model : Hlmrf.t;
  stats : stats;
}

val run : ?options:options -> Kg.Graph.t -> Logic.Rule.t list -> outcome
(** The whole pipeline in one call, for tests and benchmarks: build the
    atom store, ground it sequentially without a deadline (the
    ["ground"] span and [stats.ground_ms] cover the grounding only),
    then {!run_ground}. *)

val run_ground :
  ?options:options ->
  ?deadline:Prelude.Deadline.t ->
  ?cache:Decompose.cache ->
  Grounder.Atom_store.t ->
  Grounder.Ground.result ->
  ground_ms:float ->
  outcome
(** Encode, solve and round over a grounding computed elsewhere — the
    solve step of [Tecore.Engine.resolve]; [ground_ms] is reported in
    the stats verbatim.

    ADMM always runs per connected component of the factor graph
    ({!Decompose}), whatever the budget, one component after another
    on the calling domain.
    - [deadline] (default {!Prelude.Deadline.none}) decides only when
      the work stops, never which code runs: each component's ADMM
      polls it between iterations, so a deadline that does not fire
      returns exactly the unbudgeted answer. On expiry the current
      (box-feasible) iterate of every component is rounded and returned
      with [status = Timed_out].
    - [cache] memoises [Completed] component solutions across runs (the
      incremental engine's warm start). *)
