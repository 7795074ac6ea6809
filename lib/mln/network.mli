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
    the same fact, [(-a ∨ -a)] becomes [(-a)].

    The network is packed into flat arrays, the one layout every MLN
    solver reads. Clause [ci]'s literals are the codes
    [lits.(offsets.(ci)) .. lits.(offsets.(ci + 1) - 1)], in clause
    order, each [atom * 2 + 1] when positive and [atom * 2] when
    negative. [weights.(ci)] is the soft weight (0.0 for a hard clause),
    [hard.(ci)] the hard mask and [sources.(source.(ci))] the clause's
    origin. Every per-clause and per-literal field is an array of
    immediates or unboxed floats, so solvers, the component split and
    CPI's active subsets read and slice it without chasing pointers. *)

type t = {
  num_atoms : int;
  offsets : int array;   (** per clause, plus one end sentinel *)
  lits : int array;      (** per literal: [atom * 2 + positive] *)
  weights : float array; (** per clause; 0.0 when hard *)
  hard : bool array;     (** per clause *)
  source : int array;    (** per clause, an index into [sources] *)
  sources : string array;
      (** rule names, ["evidence"] and ["prior"]; shared by every
          sub-network *)
}

val num_clauses : t -> int

val of_clauses :
  num_atoms:int -> ((int * bool) list * float option * string) list -> t
(** A network over atoms [0 .. num_atoms - 1] with exactly these
    clauses, in order: literals as [(atom, positive)] pairs, kept as
    given (repeats and complementary pairs included), weight [None] for
    hard. *)

val append : t -> t -> t
(** The clauses of the first network, then those of the second, over
    the larger of the two atom counts. *)

val sub : ?local:int array -> num_atoms:int -> t -> int array -> t
(** [sub ~num_atoms t clauses]: the clauses [clauses] of [t], in the
    given order, over [num_atoms] atoms; with [local], each literal's
    atom [a] becomes [local.(a)]. *)

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
  Grounder.Ground.instances ->
  t
(** Evidence and prior unit clauses in atom id order, then one clause
    per rule instance in buffer order. Instances whose clause is empty or
    a tautology add nothing, and a hard clause equal (as a set of
    literals) to an earlier one is dropped. *)

val occurrences : t -> int array * int array
(** CSR occurrence index [(start, occ)]: atom [a]'s occurrences are
    [occ.(start.(a)) .. occ.(start.(a + 1) - 1)], one clause index per
    literal, in descending clause order. *)

val clause_satisfied : t -> int -> bool array -> bool
(** [clause_satisfied t ci x]: does clause [ci] hold under [x]? *)

val satisfied_if : t -> int -> bool array -> atom:int -> bool -> bool
(** [satisfied_if t ci x ~atom value]: does clause [ci] hold under [x]
    with [atom] set to [value]? *)

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

val pp_clause : t -> Format.formatter -> int -> unit
