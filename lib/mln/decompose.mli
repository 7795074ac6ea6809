(** Connected-component decomposition of a ground Markov network: the
    MLN side of {!Components}, which holds the split, the solution
    cache and the purity contract. A component here is a weighted
    MaxSAT problem over the clauses of one connected group of atoms. *)

type component = {
  atoms : int array;    (** global atom ids, ascending *)
  network : Network.t;
      (** the component's clauses sliced out of the whole network
          ({!Network.sub}), literals remapped to local indices *)
}

type solved = {
  values : bool array;  (** local assignment, indexed like [atoms] *)
  status : Prelude.Deadline.status;
}

type key

type cache = (key, solved) Components.cache
(** Keyed by canonical structural form: the component's packed clauses
    (local literal codes, offsets, weights, hard mask) plus the local
    init. Clause sources are left out: no solver reads them. *)

val key : component -> init:bool array -> key

val hash : key -> int
(** Full-content hash ({!Components.Hash}) of every literal code,
    offset, weight bit, hard bit and init bit of the key. *)

val split : Network.t -> component list
(** {!Components.split} over the clause graph; clauses keep their
    relative order. A (degenerate) zero-literal clause collapses the
    split into one whole-network component rather than dropping the
    clause. *)

val solve :
  ?cache:cache ->
  ?deadline:Prelude.Deadline.t ->
  solve_component:(Network.t -> init:bool array -> solved) ->
  init:bool array ->
  Network.t ->
  bool array * Prelude.Deadline.status
(** {!Components.solve} over {!split}; clause-free components keep
    their init without calling [solve_component], and so, [Timed_out],
    does every component once [deadline] has expired. Returns the
    merged assignment and the worst status. *)
