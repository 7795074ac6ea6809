(** Hinge-loss Markov random fields — the PSL ground model.

    PSL relaxes Boolean atoms to soft truth values in [0, 1] and replaces
    clause satisfaction by Łukasiewicz logic; MAP becomes the convex
    minimisation of a sum of hinge potentials subject to linear
    constraints. The translation of TeCoRe's ground rule instances:

    - inference instance [b1 ∧ ... ∧ bn -> h] with weight [w]:
      potential [w · max(0, Σ x_bi - (n-1) - x_h)] (the implication's
      distance to satisfaction);
    - violated soft constraint instance: [w · max(0, Σ x_bi - (n-1))];
    - violated hard constraint instance: linear constraint
      [Σ x_bi <= n-1];
    - evidence atom with confidence [c < 1]: potential [w_c · (1 - x)]
      with [w_c = c + bonus], pulling the atom toward 1 with strength
      proportional to its confidence;
    - deterministic evidence: constraint [x = 1];
    - hidden atom: prior potential [w_p · x].

    The model is packed into one flat factor buffer, potentials first,
    then constraints. Factor [f] is [weight.(f) · max(0, e)] (a hinge)
    or the constraint [e <= 0] / [e = 0], where
    [e = const.(f) + Σ coef.(j) · x_var.(j)] over the terms
    [j = offsets.(f) .. offsets.(f + 1) - 1], in that order. Every
    per-factor and per-term field is a flat array of immediates or
    unboxed floats, so the ADMM kernel, rounding and the component split
    read it without chasing pointers. *)

type kind =
  | Hinge  (** potential [weight · max(0, e)] *)
  | Le     (** constraint [e <= 0] *)
  | Eq     (** constraint [e = 0] *)

type t = {
  num_vars : int;
  num_potentials : int;
      (** factors [0 .. num_potentials - 1] are the [Hinge]s, the rest
          the constraints *)
  kind : kind array;     (** per factor *)
  weight : float array;  (** per factor; 0.0 for constraints *)
  const : float array;   (** per factor *)
  offsets : int array;   (** per factor, plus one end sentinel *)
  var : int array;       (** per term *)
  coef : float array;    (** per term *)
}

val num_factors : t -> int
val num_constraints : t -> int

type config = {
  hidden_prior : float;      (** default 0.05 *)
  evidence_bonus : float;    (** default 0.1 *)
  evidence_hard : bool;      (** confidence-1 evidence pinned to 1 *)
}

val default_config : config

val build :
  ?config:config ->
  Grounder.Atom_store.t ->
  Grounder.Ground.instances ->
  t

val objective : t -> float array -> float
(** Total weighted hinge loss of a point (lower is better). *)

val constraint_violation : t -> float array -> float
(** Maximum violation of the linear constraints (0 when feasible). *)

val pp : Format.formatter -> t -> unit
