(** Exact weighted partial MaxSAT by depth-first branch & bound.

    Complete MAP inference for moderate ground networks: assigns atoms in
    a static order (most-constrained first), propagates hard unit clauses,
    and prunes branches whose already-violated soft weight cannot beat the
    incumbent. Complexity is exponential; intended for the expressive,
    small-instance regime where the paper uses nRockIt.

    The search runs on the packed network and its CSR occurrence index
    ({!Network.occurrences}), with the assigned variables on an int
    trail, forced variables on an int stack (the last one forced is
    propagated first) and the charged soft clauses on an int stack.
    Each variable's clauses are visited in descending clause order, so
    the propagation sequence and the float sum of the charged soft
    weight are fixed by the network alone. The search state is one
    record with its float costs unboxed; the node loop allocates only
    on a new incumbent. *)

type result = {
  assignment : bool array;
  soft_cost : float;       (** violated soft weight in the optimum *)
  nodes : int;
  optimal : bool;          (** false when the node budget was exhausted *)
}

val solve :
  ?max_nodes:int -> ?deadline:Prelude.Deadline.t -> Network.t -> result option
(** [None] when the hard clauses are unsatisfiable — or, under a finite
    [deadline], when the budget expired before any solution was found
    (callers distinguish the two by checking the deadline). Default
    node budget is 2_000_000.

    [deadline] (default {!Prelude.Deadline.none}) is polled every 1024
    node expansions; on expiry the search stops, returning the best
    incumbent found so far with [optimal = false] (exactly like an
    exhausted node budget). *)
