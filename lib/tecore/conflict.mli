(** Interpretation of a MAP state as a conflict resolution.

    Given the atom store, the ground rule instances and a MAP assignment,
    this module produces what TeCoRe's result screen shows (Figure 8):
    the most probable conflict-free expanded KG, the removed (noisy)
    facts, the newly derived facts, and the conflict statistics. *)

type derived_fact = {
  atom : Logic.Atom.Ground.t;
  confidence : float;
      (** logistic of the total weight of firing rule instances that
          support the atom in the MAP state *)
  as_quad : Kg.Quad.t option;
      (** binary temporal atoms convert back to facts *)
}

type resolution = {
  consistent : Kg.Graph.t;
      (** the input graph minus removed facts, plus derived binary
          temporal facts — [G_inferred] of the paper *)
  removed : (Kg.Graph.id * Kg.Quad.t) list;
      (** evidence facts false in the MAP state *)
  derived : derived_fact list;
      (** hidden atoms true in the MAP state *)
  conflicting : Kg.Graph.id list;
      (** facts that participate in at least one violated hard-constraint
          instance under the evidence — the "conflicting statements"
          count of the statistics screen *)
  kept : int;
}

val interpret :
  graph:Kg.Graph.t ->
  store:Grounder.Atom_store.t ->
  instances:Grounder.Ground.instances ->
  assignment:bool array ->
  unit ->
  resolution
(** Read a MAP assignment over [store], the grounding of [graph] (built
    by {!Grounder.Atom_store.of_graph} on it), back into a resolution.
    @raise Invalid_argument when [store] codes its atoms in another
    graph's symbol table. *)

val apply_threshold : float -> resolution -> resolution
(** Drop derived facts whose confidence is below the threshold — the
    paper's "set a threshold value and remove derived facts below that".
    Removed derived facts are also taken out of [consistent]. *)

val pp_summary : Format.formatter -> resolution -> unit
(** The statistics panel: counts of kept / removed / derived /
    conflicting facts. *)
