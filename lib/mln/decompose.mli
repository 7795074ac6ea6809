(** Connected-component decomposition of a ground Markov network: the
    MLN side of {!Components}, which holds the split, the solution
    cache and the purity contract. A component here is a weighted
    MaxSAT problem over the clauses of one connected group of atoms. *)

type component = {
  atoms : int array;    (** global atom ids, ascending *)
  network : Network.t;  (** literals remapped to local indices *)
}

type solved = {
  values : bool array;  (** local assignment, indexed like [atoms] *)
  status : Prelude.Deadline.status;
  cpi : Cpi.stats option;
}

type key

type cache = (key, solved) Components.cache
(** Keyed by canonical structural form: clauses as signed local
    literals with weights and sources, plus the local init. *)

val split : Network.t -> component list
(** {!Components.split} over the clause graph; clauses keep their
    relative order. A (degenerate) zero-literal clause collapses the
    split into one whole-network component rather than dropping the
    clause. *)

val solve :
  ?cache:cache ->
  solve_component:(Network.t -> init:bool array -> solved) ->
  init:bool array ->
  Network.t ->
  bool array * Prelude.Deadline.status * Cpi.stats option
(** {!Components.solve} over {!split}; clause-free components keep
    their init without calling [solve_component]. Returns the merged
    assignment, the worst status and the summed CPI stats. *)
