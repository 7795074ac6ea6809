(** Interpretation of a MAP state as a conflict resolution.

    Given the atom store, the ground rule instances and a MAP assignment,
    this module produces what TeCoRe's result screen shows (Figure 8):
    the most probable conflict-free expanded KG, the removed (noisy)
    facts, the newly derived facts, and the conflict statistics. *)

type derived_fact = {
  id : Grounder.Atom_store.id;  (** the hidden atom, in [store] *)
  confidence : float;
      (** logistic of the total weight of firing rule instances that
          support the atom in the MAP state *)
}

type resolution = {
  store : Grounder.Atom_store.t;
      (** the store given to {!interpret}, which [Engine.result.raw] holds
          too; it never renumbers an atom, so [derived] ids stay valid *)
  consistent : Kg.Graph.t;
      (** the input graph minus removed facts, plus derived binary
          temporal facts — [G_inferred] of the paper *)
  removed : (Kg.Graph.id * Kg.Quad.t) list;
      (** evidence facts false in the MAP state *)
  derived : derived_fact list;
      (** hidden atoms true in the MAP state, in ascending id order *)
  conflicting : Kg.Graph.id list;
      (** facts that participate in at least one violated hard-constraint
          instance under the evidence — the "conflicting statements"
          count of the statistics screen *)
  kept : int;
}

val derived_atom : resolution -> derived_fact -> Logic.Atom.Ground.t
(** Decoded from [store] on demand; counting derived facts decodes none. *)

val derived_quad : resolution -> derived_fact -> Kg.Quad.t option
(** The atom as a fact with its confidence, when it is binary and
    temporal (only those enter [consistent]); decoded on demand. *)

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
    Facts stating a dropped atom leave a copy of [consistent]. *)

val pp_summary : Format.formatter -> resolution -> unit
(** The statistics panel: counts of kept / removed / derived /
    conflicting facts. *)
