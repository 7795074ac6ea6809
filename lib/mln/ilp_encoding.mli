(** ILP encoding of weighted partial MaxSAT — the nRockIt/Gurobi reduction.

    One binary variable per ground atom; per soft clause [C] with weight
    [w], an auxiliary binary [z_C] with [z_C <= Σ lit(C)] and objective
    term [w · z_C]; per hard clause, the row [Σ lit(C) >= 1]. A positive
    literal contributes [x], a negative one [1 - x]. *)

type encoding = {
  lp : Ilp.Lp.t;
  binary : int list;
      (** the atom variables; clause auxiliaries stay continuous in
          [0, 1] and are integral at the optimum once atoms are fixed *)
  num_atom_vars : int;      (** atoms occupy variables [0 .. n-1] *)
}

val solve :
  ?max_nodes:int ->
  ?deadline:Prelude.Deadline.t ->
  Network.t ->
  (bool array * bool) option
(** End-to-end: encode, run {!Ilp.Milp.solve}, decode. Returns the
    assignment and whether it is provably optimal; [None] when the hard
    clauses are unsatisfiable (or, under a finite [deadline], when it
    expired before any incumbent was found — see {!Ilp.Milp.solve}). *)
