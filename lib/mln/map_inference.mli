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
  portfolio : int list;         (** extra MaxWalkSAT descent seeds *)
  pool : Prelude.Pool.t;
      (** runs grounding joins and MaxWalkSAT descents in parallel;
          results are objective-identical at every job count *)
  deadline : Prelude.Deadline.t;
      (** solve budget. The network is solved per connected component
          (see {!Decompose}), with per-component budgets scaled to
          component size, exactly when the deadline is infinite;
          budgeted runs keep the global anytime solve. [Walk] polls it
          inside the descents; the exact backends run a degradation
          ladder: exact search on half the remaining budget, then — if
          optimality was not proved in the slice — MaxWalkSAT on the
          rest, seeded from the exact incumbent, with
          [status = Degraded] *)
  ground_deadline : Prelude.Deadline.t;
      (** grounding budget, polled between closure rounds; expiry
          raises {!Grounder.Ground.Timed_out} (there is no sound
          partial grounding). Kept separate from [deadline] so
          best-effort callers can budget only the solver *)
  solve_cache : Decompose.cache option;
      (** memoises component solutions across runs (the incremental
          engine's warm start). Only consulted under an infinite [deadline];
          sound because component solves are pure in their canonical
          form. Default [None] *)
}

val default_options : options
(** [Walk] with CPI on, default network config, seed 7, no extra
    portfolio seeds, {!Prelude.Pool.sequential}, infinite deadlines
    (so the solve is decomposed), no solve cache. *)

type stats = {
  atoms : int;
  evidence_atoms : int;
  hidden_atoms : int;
  clauses : int;
  hard_clauses : int;
  closure_rounds : int;
  ground_ms : float;
  solve_ms : float;
  cpi : Cpi.stats option;
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
  store : Grounder.Atom_store.t;
  instances : Grounder.Ground.Instance.t list;
  network : Network.t;
  stats : stats;
}

val run : ?options:options -> Kg.Graph.t -> Logic.Rule.t list -> outcome

val run_store :
  ?options:options -> Grounder.Atom_store.t -> Logic.Rule.t list -> outcome
(** Same, over a pre-built atom store (lets callers inject extra atoms). *)

val run_ground :
  ?options:options ->
  Grounder.Atom_store.t ->
  Grounder.Ground.result ->
  ground_ms:float ->
  outcome
(** Encode-and-solve over a grounding computed elsewhere — the entry
    point of the incremental engine, which produces the grounding by
    delta replay instead of {!Grounder.Ground.run}. [ground_ms] is
    reported in the stats verbatim. *)
