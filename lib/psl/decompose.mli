(** Connected-component decomposition of a hinge-loss MRF: the PSL side
    of {!Components}, which holds the split, the solution cache and the
    purity contract. A component here is a small convex problem ADMM
    solves in a handful of iterations; ADMM is deterministic (see
    {!Admm.solve}), so its solution is a pure function of the
    component's structural form and its slice of the consensus
    initialisation — sound by construction rather than by approximate
    dual reuse. *)

type component = {
  vars : int array;   (** global variable ids, ascending *)
  model : Hlmrf.t;
      (** the component's factors as a packed model of its own, with
          variables renumbered to local indices *)
}

type solved = {
  values : float array;  (** local solution, indexed like [vars] *)
  admm : Admm.stats;     (** the component's own ADMM run *)
}

type key

type cache = (key, solved) Components.cache
(** Keyed by the component's packed sub-model plus its slice of the
    init. *)

val key : component -> init:float array -> key

val hash : key -> int
(** Full-content hash ({!Components.Hash}) of every kind, weight,
    constant, offset, variable, coefficient and init value of the key. *)

val split : Hlmrf.t -> component list
(** {!Components.split} over the factor graph (potentials, then
    constraints); factors keep their relative order. A (degenerate)
    variable-free factor collapses the split into one whole-model
    component. *)

val solve :
  ?cache:cache ->
  ?deadline:Prelude.Deadline.t ->
  rho:float ->
  max_iters:int ->
  tol:float ->
  init:float array ->
  Hlmrf.t ->
  float array * Admm.stats
(** Run ADMM per component via {!Components.solve}, one component
    after another on the calling domain ([deadline] is polled between
    ADMM iterations; past expiry every remaining component keeps its
    clipped init unsolved, as factor-free components always do) and
    merge: iterations is the max, residuals the max, [converged] the
    conjunction, the objective is recomputed globally on the merged
    truth, the status the worst. *)
