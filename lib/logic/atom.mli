(** Atoms: possibly-temporal predicate applications.

    A quad [(s, p, o, i)] of the UTKG is translated by θ into the ground
    atom [p(s, o)@i]; rules and constraints use patterns with variables,
    e.g. [coach(?x, ?y)@?t]. Atoms without a temporal argument (such as
    [type(?x, TeenPlayer)] in rule f3) are supported as atemporal. *)

type t = {
  predicate : string;
  args : Lterm.t list;
  time : Lterm.ttime option;
}

val make : ?time:Lterm.ttime -> string -> Lterm.t list -> t

val quad_pattern :
  string -> subject:Lterm.t -> object_:Lterm.t -> time:Lterm.ttime -> t
(** The binary temporal pattern used for KG predicates:
    [quad_pattern p ~subject ~object_ ~time] is [p(subject, object_)@time]. *)

val vars : t -> string list
(** Object variables, in order of first occurrence, without duplicates. *)

val tvars : t -> string list

val pp : Format.formatter -> t -> unit

(** {1 Ground atoms}

    Fully instantiated atoms, the nodes of the ground Markov network. *)

module Ground : sig
  type t = {
    predicate : string;
    args : Kg.Term.t list;
    time : Kg.Interval.t option;
  }

  val make : ?time:Kg.Interval.t -> string -> Kg.Term.t list -> t

  val of_quad : Kg.Quad.t -> t
  (** θ on a single fact: [(s,p,o,i)] becomes [p(s,o)@i]. The predicate
      name is the rendered form of the quad's predicate term. *)

  val to_quad : ?confidence:float -> t -> Kg.Quad.t option
  (** Inverse of {!of_quad} for binary temporal atoms; [None] for
      atemporal or non-binary atoms. *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

val instantiate : Subst.t -> t -> Ground.t option
(** Fully ground under a substitution; [None] when a variable is unbound
    or a computed interval is empty. *)
