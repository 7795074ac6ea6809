(** Uncertain temporal facts.

    A fact [(s, p, o, [t1,t2]) c] states that the triple held during the
    interval and is believed with confidence [c] in (0, 1]. Facts with
    [c = 1.0] are deterministic evidence; the MAP solvers may never remove
    them. This is the atomic unit of a UTKG (Figure 1 of the paper). *)

type t = {
  subject : Term.t;
  predicate : Term.t;
  object_ : Term.t;
  time : Interval.t;
  confidence : float;
}

exception Invalid of string

val make :
  ?confidence:float ->
  subject:Term.t ->
  predicate:Term.t ->
  object_:Term.t ->
  Interval.t ->
  t
(** @raise Invalid when the confidence is outside (0, 1] or the predicate
    is a literal. Default confidence is 1.0. *)

val v : string -> string -> Term.t -> int * int -> float -> t
(** Terse constructor for examples and tests:
    [v subject predicate object (lo, hi) confidence]. Subject and
    predicate are IRIs. *)

val is_certain : t -> bool
(** True when confidence = 1.0. *)

val weight : t -> float
(** Log-odds translation used by θ: [ln (c / (1 - c))], clamped to
    [Quad.max_weight] for certain facts. *)

val max_weight : float
(** Weight assigned to deterministic (confidence 1.0) facts. *)

val same_statement : t -> t -> bool
(** Equality ignoring confidence (same triple, same interval). *)

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Paper notation: [(CR, coach, Chelsea, [2000,2004]) 0.9]. *)

val to_string : t -> string
