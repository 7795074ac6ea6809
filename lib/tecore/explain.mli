(** Explanations: why a fact was removed, why a fact was derived.

    The result browser of Figure 8 lists conflicting statements; a curator
    then wants to know {e why} each one lost. An explanation names the
    constraint, the clash partners that survived, and the weight
    comparison that decided the outcome; for derived facts it lists the
    firing rule instances. *)

type removal = {
  fact : Kg.Graph.id;
  quad : Kg.Quad.t;
  clashes : clash list;
}

and clash = {
  constraint_name : string;
  winners : Kg.Quad.t list;
      (** the surviving facts of the violated instance *)
  winner_weight : float;
      (** minimum log-odds weight among the winners *)
  loser_weight : float;
      (** the removed fact's log-odds weight *)
}

type derivation = {
  atom : Logic.Atom.Ground.t;
  via : (string * Kg.Quad.t list) list;
      (** firing rule name with the supporting facts of each instance *)
}

val pp_removal : Format.formatter -> removal -> unit
val pp_derivation : Format.formatter -> derivation -> unit

val of_result :
  Kg.Graph.t -> Engine.result -> removal list * derivation list
(** Convenience over {!removals} and {!derivations} using the result's
    grounding artefacts. *)
