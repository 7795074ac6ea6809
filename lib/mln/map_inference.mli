(** End-to-end MAP inference over a UTKG with the MLN engine: the
    [map(θ(G), F ∪ C)] computation of the paper on the nRockIt path.

    Pipeline: θ-translate the graph into an atom store, saturate and
    ground the rules relationally, compile the ground network, solve
    weighted partial MaxSAT with the configured backend, and return the
    MAP state together with the artefacts needed to interpret it
    (removed evidence, derived facts). *)

type solver =
  | Walk           (** MaxWalkSAT local search (scalable, approximate) *)
  | Exact_bb       (** branch & bound MaxSAT (complete, small instances) *)
  | Ilp_exact      (** ILP reduction solved by simplex + branch & bound *)

type options = {
  solver : solver;
  use_cpi : bool;               (** wrap the solver in cutting-plane inference *)
  network_config : Network.config;
  seed : int;
  max_flips : int;
  restarts : int;
  pool : Prelude.Pool.t;
      (** runs the grounding joins of {!run} and the MaxWalkSAT
          descents in parallel; results are objective-identical at
          every job count *)
  deadline : Prelude.Deadline.t;
      (** solve budget. The network is solved per connected component
          (see {!Decompose}), with per-component budgets scaled to
          component size, exactly when the deadline is infinite;
          budgeted runs keep the global anytime solve. [Walk] polls it
          inside the descents; the exact backends run a degradation
          ladder: exact search on half the remaining budget, then — if
          optimality was not proved in the slice — MaxWalkSAT on the
          rest, seeded from the exact incumbent, with
          [status = Degraded]. Grounding is never budgeted here: a
          caller that must bound it (as [Tecore.Engine.resolve] does
          under [`Fail]) grounds itself with a deadline and calls
          {!run_ground} *)
  solve_cache : Decompose.cache option;
      (** memoises component solutions across runs (the incremental
          engine's warm start). Only consulted under an infinite [deadline];
          sound because component solves are pure in their canonical
          form. Default [None] *)
}

val default_options : options
(** [Walk] with CPI on, default network config, seed 7, 3 restarts,
    {!Prelude.Pool.sequential}, an infinite deadline (so the solve is
    decomposed), no solve cache. *)

type stats = {
  atoms : int;
  evidence_atoms : int;
  hidden_atoms : int;
  ground_ms : float;
  solve_ms : float;
  hard_violations : int;        (** 0 unless the hard part is unsatisfiable *)
  objective : float;            (** satisfied soft weight of the MAP state *)
  status : Prelude.Deadline.status;
      (** anytime outcome of the solve stage: [Completed] with an
          infinite deadline (always), [Timed_out] when the budget cut
          search short but the answer is hard-constraint-sound,
          [Degraded] when the exact→walk ladder fired, a worker
          crashed, or hard constraints are violated in a timed-out
          answer *)
}

type outcome = {
  assignment : bool array;      (** MAP truth value per atom id *)
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
(** Encode-and-solve over a grounding computed elsewhere — the solve
    step of [Tecore.Engine.resolve], which grounds fresh, records a
    replay snapshot or replays one ({!Grounder.Ground.reground}).
    [ground_ms] is reported in the stats verbatim. *)
