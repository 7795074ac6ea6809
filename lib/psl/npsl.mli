(** nPSL: the numerically-extended PSL path of TeCoRe, end to end.

    Mirrors {!Mln.Map_inference} on the scalable side: θ-translate the
    UTKG, ground relationally (numeric and Allen conditions are evaluated
    during grounding — the "numerical extension on top of PSL" the paper
    describes), build the hinge-loss MRF, run consensus ADMM, round. *)

type options = {
  config : Hlmrf.config;
  rho : float;
  max_iters : int;
  tol : float;
  threshold : float;        (** rounding threshold *)
  pool : Prelude.Pool.t;
      (** runs the grounding joins of {!run} and the ADMM factor sweeps
          in parallel; the solution is bitwise identical at every job
          count *)
  deadline : Prelude.Deadline.t;
      (** solve budget. ADMM runs per connected component of the factor
          graph (see {!Decompose}) exactly when the deadline is
          infinite; a finite one runs the global ADMM, polled between
          iterations; on expiry the current (box-feasible) iterate is
          rounded and returned with [status = Timed_out]. Grounding is
          never budgeted here: a caller that must bound it grounds
          itself with a deadline and calls {!run_ground} *)
  solve_cache : Decompose.cache option;
      (** memoises component solutions across runs (the incremental
          engine's warm start). Only consulted under an infinite
          [deadline]. Default [None] *)
}

val default_options : options

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
    atom store, ground it without a deadline (the ["ground"] span and
    [stats.ground_ms] cover the grounding only), then {!run_ground}. *)

val run_ground :
  ?options:options ->
  Grounder.Atom_store.t ->
  Grounder.Ground.result ->
  ground_ms:float ->
  outcome
(** Encode, solve and round over a grounding computed elsewhere — the
    solve step of [Tecore.Engine.resolve]; [ground_ms] is reported in
    the stats verbatim. *)
