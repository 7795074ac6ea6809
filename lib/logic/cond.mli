(** Numeric and temporal conditions of rules and constraints.

    These are the "numerical constraints" of the MLN extension the paper
    builds on (Chekol et al., ECAI 2016): Allen relations between temporal
    terms, arithmetic comparisons over interval endpoints and numeric
    constants, and (in)equalities between object terms. Conditions are
    evaluated during grounding — they never become random variables. *)

type arith =
  | Num of int                    (** integer literal *)
  | Start_of of Lterm.ttime       (** left endpoint of an interval *)
  | End_of of Lterm.ttime         (** right endpoint of an interval *)
  | Length_of of Lterm.ttime      (** number of covered time points *)
  | Value_of of Lterm.t           (** numeric value of an object term *)
  | Add of arith * arith
  | Sub of arith * arith

type cmp = Lt | Le | Gt | Ge | Eq_cmp | Ne_cmp

type t =
  | Allen of Kg.Allen.Set.t * Lterm.ttime * Lterm.ttime
      (** e.g. [overlaps(t, t')], [disjoint(t, t')] *)
  | Cmp of cmp * arith * arith
      (** e.g. [start(t) - start(t') < 20] *)
  | Eq of Lterm.t * Lterm.t       (** object equality [y = z] *)
  | Neq of Lterm.t * Lterm.t      (** object inequality [y != z] *)

val allen_set : Kg.Allen.Set.t -> Lterm.ttime -> Lterm.ttime -> t

val vars : t -> string list
(** Free object variables. *)

val tvars : t -> string list
(** Free temporal variables. *)

val eval : Subst.t -> t -> bool option
(** Truth value under a substitution; [None] when some variable is still
    unbound or a numeric view does not exist (e.g. [Value_of] of a
    non-numeric constant, an empty computed interval). *)

val pp : Format.formatter -> t -> unit
