(** Column values of the relational grounding backend.

    RockIt-style systems ground MLNs through SQL joins over a relational
    store; we reproduce that architecture with an in-memory engine. Values
    carry KG terms, machine integers (interval endpoints, fact ids) and
    whole intervals. *)

type t =
  | Term of Kg.Term.t
  | Int of int
  | Interval of Kg.Interval.t
  | Null

val term : Kg.Term.t -> t
val interval : Kg.Interval.t -> t

(** {1 Interned codes}

    The columnar table backend stores values as single ints: two tag
    bits plus either the machine int itself or a {!Kg.Symbol} intern id.
    The encoding is injective (for [Int n] with [|n| < 2^60]), so code
    equality coincides with value equality and joins hash plain ints. *)

type code = int

val code : t -> code
(** Encode, interning terms/intervals into the global {!Kg.Symbol}
    table as needed. *)

val code_opt : t -> code option
(** Encode without interning: [None] when the term/interval has never
    been interned — useful for lookups, where an unseen symbol simply
    matches nothing. *)

val of_term_id : int -> code
(** The code of the term with this {!Kg.Symbol} id. *)

val of_interval_id : int -> code
(** The code of the interval with this {!Kg.Symbol} id. *)

val of_int : int -> code
(** [code (Int n)]. *)

val payload : code -> int
(** The symbol id (term, interval) or machine int a code carries. *)

val decode_term : code -> Kg.Term.t option
val decode_interval : code -> Kg.Interval.t option
(** Tag-checked decodes of a single code: [None] when the code carries
    another kind of value. *)
