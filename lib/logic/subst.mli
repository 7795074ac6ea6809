(** Substitutions: bindings for object and temporal variables.

    Grounding a rule means extending a substitution atom by atom until all
    variables are bound, then evaluating the rule's numeric and Allen
    conditions under it. *)

type t

val empty : t

val bind : t -> string -> Kg.Term.t -> t option
(** [bind s v c] extends the substitution; returns [None] when [v] is
    already bound to a different constant (unification failure). *)

val bind_time : t -> string -> Kg.Interval.t -> t option

val eval_term : t -> Lterm.t -> Kg.Term.t option
(** Fully evaluate to a constant; [None] if an unbound variable remains. *)

val eval_time : t -> Lterm.ttime -> Kg.Interval.t option
(** Evaluate a temporal term, computing intersections and hulls. An empty
    intersection yields [None] (the rule instance does not fire). *)

val pp : Format.formatter -> t -> unit
