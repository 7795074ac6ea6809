(** Weighted temporal inference rules and constraints.

    A rule has the paper's shape [Body ∧ \[Condition\] → Head]:
    - the body is a conjunction of atoms plus evaluable conditions;
    - the head is an atom (inference rule, e.g. f1–f3), a condition
      (constraint, e.g. c1–c2: [→ before(t,t')]), an object equality
      (equality-generating dependency, c3: [→ y = z]) or [⊥] (denial).

    The weight is a positive real; [None] means hard ([w = ∞]). *)

type head =
  | Infer of Atom.t       (** derive a new atom *)
  | Require of Cond.t     (** the condition must hold for the body *)
  | Bottom                (** the body is forbidden *)

type t = {
  name : string;
  weight : float option;  (** [None] = hard constraint *)
  body : Atom.t list;     (** conjunctive body, at least one atom *)
  conditions : Cond.t list;
  head : head;
}

exception Ill_formed of string

val make :
  ?weight:float ->
  ?conditions:Cond.t list ->
  name:string ->
  body:Atom.t list ->
  head ->
  t
(** @raise Ill_formed when the body is empty, the weight is not positive,
    or the rule is unsafe (see {!check_safety}). *)

val is_hard : t -> bool
val is_inference : t -> bool
(** True for [Infer _] heads, false for constraints. *)

val check_safety : t -> (unit, string) result
(** Range restriction: every object variable of the head and of every
    condition occurs in a body atom; every temporal variable of the head
    and conditions occurs as a body atom's time. *)

val pp : Format.formatter -> t -> unit
(** Paper-style rendering, e.g.
    [f1: playsFor(?x, ?y)@?t -> worksFor(?x, ?y)@?t  w=2.5]. *)

val to_string : t -> string
