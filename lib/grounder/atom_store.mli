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

val create : unit -> t

val of_graph : Kg.Graph.t -> t
(** Intern every live fact of the graph as evidence. *)

val intern : t -> origin -> Logic.Atom.Ground.t -> id
(** Id of the atom, creating it if needed. When the atom already exists,
    an [Evidence] origin upgrades a [Hidden] one (and keeps the higher
    confidence of two evidence origins). *)

val find : t -> Logic.Atom.Ground.t -> id option

val atom : t -> id -> Logic.Atom.Ground.t
val origin : t -> id -> origin

val is_evidence : t -> id -> bool

val evidence_facts : t -> id -> Kg.Graph.id list
(** Every graph fact that was interned into this atom, in insertion
    order. Duplicate statements (same triple and interval, possibly
    different confidences) share one atom; a decision about the atom
    applies to all of them. Empty for hidden atoms. *)

val size : t -> int

val iter : (id -> Logic.Atom.Ground.t -> origin -> unit) -> t -> unit

val table_name : string -> arity:int -> temporal:bool -> string
(** Table naming scheme: one table per (predicate, arity, temporality). *)

val table_for :
  t -> string -> arity:int -> temporal:bool -> Reldb.Table.t option
(** The extension table of a predicate, when any atom of that shape was
    interned. Columns: [a0 .. a{arity-1}], [t] (interval or NULL), [atom]
    (the id). *)
