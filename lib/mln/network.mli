(** Ground Markov network in weighted-clause form.

    MAP inference in an MLN is weighted partial MaxSAT over the ground
    clauses: hard clauses (from [w = ∞] formulas and deterministic
    evidence) must hold; the MAP state maximises the total weight of
    satisfied soft clauses. The network is built from the grounder's rule
    instances plus unit clauses encoding the θ-translated evidence:

    - evidence atom with confidence [c < 1]: unit clause [(+a)] with the
      log-odds weight [ln (c / (1-c))];
    - evidence atom with [c = 1]: hard unit clause;
    - hidden atom: unit clause [(-a)] with a small negative-prior weight,
      so derived facts are asserted only when a firing rule outweighs the
      prior;
    - inference instance [b1 ∧ ... ∧ bn -> h] with weight [w]: clause
      [(-b1 ∨ ... ∨ -bn ∨ h)] with weight [w];
    - violated-constraint instance: clause [(-b1 ∨ ... ∨ -bn)].

    A rule clause holds each (atom, sign) once: when two body atoms bind
    the same fact, [(-a ∨ -a)] becomes [(-a)]. *)

type literal = { atom : int; positive : bool }

type clause = {
  literals : literal array;
  weight : float option;  (** [None] = hard *)
  source : string;        (** rule name, ["evidence"] or ["prior"] *)
}

type t = {
  num_atoms : int;
  clauses : clause array;
}

type config = {
  hidden_prior : float;
      (** weight of the negative prior on hidden atoms (default 0.005, small enough that keeping
          a fact always beats dropping it to dodge derivation priors) *)
  evidence_bonus : float;
      (** small weight added to every uncertain evidence unit clause so
          that ties break toward keeping a fact — TeCoRe computes a
          {e maximal} consistent subgraph, so a confidence-0.5 fact that
          conflicts with nothing must survive (default 0.1) *)
  evidence_hard : bool;
      (** when true, confidence-1.0 evidence becomes hard clauses
          (default true) *)
}

val default_config : config

val build :
  ?config:config ->
  Grounder.Atom_store.t ->
  Grounder.Ground.Instance.t list ->
  t

val clause_satisfied : clause -> bool array -> bool

val hard_violations : t -> bool array -> int

val repair_hard : t -> bool array -> int
(** [repair_hard t x] greedily flips atoms of [x] (in place) to reduce
    the number of violated hard clauses, applying only strictly
    improving flips (lowest violated clause first, best literal by
    violation delta, ties to the earlier literal — fully
    deterministic). Returns the remaining violation count: [0] means
    [x] is now hard-sound. Terminates after at most the initial count
    of violations, so the anytime path can run it {e after} a budget
    expiry to make the best-so-far assignment sound without a budget of
    its own. *)

val score : t -> bool array -> float
(** Total weight of satisfied soft clauses. Only meaningful to compare
    assignments with equal {!hard_violations}. *)

val cost : t -> bool array -> float
(** Total weight of violated soft clauses (score's complement). *)

val initial_assignment : t -> Grounder.Atom_store.t -> bool array
(** Evidence true, hidden false — the observed world of θ(G) itself
    (the training world for weight learning and the Gibbs start). *)

val expanded_assignment : t -> bool array
(** Every atom true — the closure-expanded world. The right MAP starting
    point: derivation chains begin satisfied and the solver only has to
    retract facts to repair constraint violations, instead of pushing
    derived atoms one by one across a plateau of prior penalties. *)

val pp : Format.formatter -> t -> unit
(** Summary line plus the first few clauses. *)

val pp_clause : Format.formatter -> clause -> unit
