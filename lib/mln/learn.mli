(** Rule-weight learning by pseudo-log-likelihood ascent.

    The demo notes that rules can be "learned from data"; weights
    certainly can. Given a training UTKG treated as the observed world
    (evidence atoms true; atoms only introduced by closure are unobserved
    and closed-world false), the generative pseudo-log-likelihood

    [PLL(w) = Σ_i log P(x_i = obs_i | MB(x_i))]

    is concave in the rule weights and its gradient has closed form: for
    atom [i], the local log-odds are [d_i = Σ_r w_r g_ir + c_i] where
    [g_ir] counts how many of rule [r]'s ground clauses containing [i]
    are satisfied in the observed world minus how many would be satisfied
    with [x_i] flipped, and [c_i] collects the same quantity for the
    fixed-weight unit clauses (evidence, priors). Both are constants of
    the training world, so each ascent iteration is linear in the number
    of (atom, rule) pairs.

    Weights are kept in [\[min_weight, max_weight\]]; a rule whose
    groundings are frequently violated by the data is driven toward the
    floor, while never-violated rules rise until the L2 prior stops
    them. *)

type options = {
  iterations : int;        (** default 200 *)
  learning_rate : float;   (** default 0.1 *)
  l2 : float;              (** L2 regularisation strength, default 0.01 *)
  min_weight : float;      (** default 0.01 *)
  max_weight : float;      (** default 15.0 *)
}

val default_options : options

type result = {
  weights : (string * float) list;
      (** learned weight per soft rule name, in input order *)
  pll_trace : float list;
      (** pseudo-log-likelihood after each iteration (monotone up to
          regularisation and clamping) *)
}

val learn :
  ?options:options ->
  Grounder.Atom_store.t ->
  Grounder.Ground.instances ->
  Logic.Rule.t list ->
  result
(** Learn weights for the soft rules in the list; hard rules and the
    evidence translation keep their fixed weights and act as the
    constant part of each atom's Markov blanket. *)

val apply : result -> Logic.Rule.t list -> Logic.Rule.t list
(** Replace each soft rule's weight with its learned value (rules
    without a learned entry are returned unchanged). *)
