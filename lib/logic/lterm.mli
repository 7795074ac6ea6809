(** Logical terms: variables and constants.

    The translation θ maps a UTKG into a function-free first-order
    knowledge base, so terms are either variables (to be grounded) or
    constants drawn from the KG's Herbrand universe. Temporal arguments
    are kept in a separate sort ({!ttime}) because rule heads may
    {e compute} intervals (e.g. [t'' = t ∩ t'] in rule f2). *)

type t =
  | Var of string          (** object variable, e.g. [x] *)
  | Const of Kg.Term.t     (** constant from the KG *)

type ttime =
  | Tvar of string                    (** temporal variable, e.g. [t] *)
  | Tconst of Kg.Interval.t           (** explicit interval *)
  | Tinter of ttime * ttime           (** interval intersection [t ∩ t'] *)
  | Thull of ttime * ttime            (** smallest cover of both *)

val var : string -> t
val const : Kg.Term.t -> t

val vars : t -> string list
(** Free object variables (0 or 1 elements). *)

val tvars : ttime -> string list
(** Free temporal variables, left to right, without duplicates. *)

val pp : Format.formatter -> t -> unit
val pp_time : Format.formatter -> ttime -> unit
