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
}
(** Plain data: equal options give equal answers. The runtime resources
    of a solve (deadline, component cache) are arguments of
    {!run_ground}. *)

val default_options : options
(** [Walk] with CPI on and the default network config. MaxWalkSAT
    always runs with seed 7 and 3 restarts, with per-descent flip and
    stall budgets scaled to each component's size (at most 100,000
    flips). *)

type stats = {
  atoms : int;
  evidence_atoms : int;
  hidden_atoms : int;
  ground_ms : float;
  solve_ms : float;
  hard_violations : int;        (** 0 unless the hard part is unsatisfiable *)
  objective : float;            (** satisfied soft weight of the MAP state *)
  status : Prelude.Deadline.status;
      (** anytime outcome of the solve stage: [Completed] whenever the
          deadline did not fire, with the unbudgeted answer; [Timed_out]
          when the budget cut search short but the answer is
          hard-constraint-sound; [Degraded] when the exact→walk ladder
          fired, a worker crashed, or hard constraints are violated in a
          timed-out answer *)
}

type outcome = {
  assignment : bool array;      (** MAP truth value per atom id *)
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
(** Encode-and-solve over a grounding computed elsewhere — the solve
    step of [Tecore.Engine.resolve], which grounds fresh or replays a
    snapshot ({!Grounder.Ground.reground}).
    [ground_ms] is reported in the stats verbatim.

    The network is always solved per connected component
    ({!Decompose}), whatever the budget, one component after another
    on the calling domain.
    - [deadline] (default {!Prelude.Deadline.none}) decides only when
      the work stops, never which code runs: every component's solve
      and CPI loop poll it, so a deadline that does not fire returns
      exactly the unbudgeted answer. After expiry each remaining
      component returns its init, scored, without searching. The exact
      backends give their search half the remaining budget and fall
      back to MaxWalkSAT ([Degraded]) when it expires first.
    - [cache] memoises [Completed] component solutions across runs (the
      incremental engine's warm start); sound because component solves
      are pure in their canonical form, and a solve the deadline cut
      short is never [Completed]. *)
