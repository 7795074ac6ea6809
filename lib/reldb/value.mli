(** Column values of the relational grounding backend.

    RockIt-style systems ground MLNs through SQL joins over a relational
    store; we reproduce that architecture with an in-memory engine. A
    cell is a single int code: two tag bits plus either a machine int
    (interval endpoints, fact and atom ids) or the code a graph's symbol
    table ({!Kg.Graph.symbols}) gave a term or an interval. The encoding
    is injective (for ints [|n| < 2^60]), so within one table code
    equality coincides with value equality and joins hash plain ints. *)

type code = int

val null : code
(** The empty cell: an atemporal atom's interval column. *)

val of_term_id : int -> code
val of_interval_id : int -> code
(** The code of the term (interval) with this symbol code. *)

val of_int : int -> code

val payload : code -> int
(** The symbol code (term, interval) or machine int a code carries. *)

val find_term : Kg.Graph.symbols -> Kg.Term.t -> code option
val find_interval : Kg.Graph.symbols -> Kg.Interval.t -> code option
(** The code of a symbol the table has; [None] for one never interned,
    which occurs in no column. *)

val decode_term : Kg.Graph.symbols -> code -> Kg.Term.t option
val decode_interval : Kg.Graph.symbols -> code -> Kg.Interval.t option
(** Tag-checked decodes of a single code through the table that gave
    it: [None] when the code carries another kind of value. *)
