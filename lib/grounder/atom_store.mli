(** Dictionary of ground atoms backed by relational tables.

    Every ground atom (evidence from the UTKG, or derived during closure)
    is interned to a dense integer id — the random-variable index of the
    ground Markov network. Each predicate's extension is mirrored in a
    {!Reldb} table so rule bodies can be grounded with relational joins,
    reproducing RockIt's SQL-based grounding architecture. *)

type id = int

type origin =
  | Evidence of { confidence : float; fact : Kg.Graph.id }
      (** translated from a UTKG fact by θ *)
  | Hidden
      (** introduced by an inference-rule head *)

type t

type key = int array
(** An atom packed as codes: [[| p; a0; ..; a{n-1}; c |]] where [p] and
    the [ai] are the term codes of the predicate (as an IRI) and the
    arguments in the store's symbol table, and [c] is [0] for an
    atemporal atom, else the code of its interval plus one. The table
    is the graph's and append-only, so a key means the same atom in
    every store built over that graph. *)

val create : Kg.Graph.symbols -> t
(** An empty store whose atoms are coded in this symbol table. *)

val of_graph : Kg.Graph.t -> t
(** Intern every live fact of the graph as evidence, in the graph's own
    symbol table: a column copy of the facts' codes, sized from the
    graph's fact count up front. *)

val symbols : t -> Kg.Graph.symbols
(** The table the store's codes come from. *)

val intern_key : t -> origin -> key -> id
(** Id of the atom, creating it if needed. When the atom already exists,
    an [Evidence] origin upgrades a [Hidden] one (and keeps the higher
    confidence of two evidence origins). Every symbol the key names
    must be interned; the key is copied. *)

val find_in : t -> src:t -> id -> id option
(** [find_in t ~src id]: the id in [t] of atom [id] of store [src], two
    stores over the same symbol table. *)

val key : t -> id -> key
(** A fresh copy of the atom's key. *)

val intern : t -> origin -> Logic.Atom.Ground.t -> id
(** {!intern_key} on the encoded atom; interns the atom's symbols in the
    order predicate, arguments, interval. *)

val find : t -> Logic.Atom.Ground.t -> id option
(** The atom's id, when it is in the store; interns no symbol. *)

val atom : t -> id -> Logic.Atom.Ground.t
(** The boxed view of an atom, rebuilt from its key. *)

val origin : t -> id -> origin

val is_evidence : t -> id -> bool

val evidence_facts : t -> id -> Kg.Graph.id list
(** Every graph fact that was interned into this atom, in insertion
    order. Duplicate statements (same triple and interval, possibly
    different confidences) share one atom; a decision about the atom
    applies to all of them. Empty for hidden atoms. *)

val size : t -> int

val iter : (id -> Logic.Atom.Ground.t -> origin -> unit) -> t -> unit
(** Over every atom in id order, rebuilding each boxed view. *)

val table_for :
  t -> string -> arity:int -> temporal:bool -> Reldb.Table.t option
(** The extension table of a predicate, when any atom of that shape was
    interned. Columns: [a0 .. a{arity-1}], [t] (interval or NULL), [atom]
    (the id). *)
