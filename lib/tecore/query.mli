(** Temporal conjunctive queries over a UTKG.

    Related work frames "temporal query evaluation under constraints" as
    the core problem of temporal databases; TeCoRe's grounder is exactly
    a temporal conjunctive-query evaluator, so we expose it directly:
    a query is a rule body — atoms with interval variables plus Allen and
    arithmetic conditions — and an answer is a substitution together with
    the facts that support it and their combined confidence.

    {v
    coach(x, y)@t ^ coach(x, z)@t2 ^ y != z ^ intersects(t, t2)
    v}

    finds every pair of overlapping coaching spells — the clashes that
    constraint c2 would flag. *)

type answer = {
  subst : Logic.Subst.t;
  facts : Kg.Graph.id list;
      (** the matched facts, in query-atom order *)
  confidence : float;
      (** product of the matched facts' confidences *)
}

val run : ?namespace:Kg.Namespace.t -> Kg.Graph.t -> string ->
  (answer list, string) result
(** Parse and evaluate the query against the graph. *)

val pp_answer : Kg.Graph.t -> Format.formatter -> answer -> unit
