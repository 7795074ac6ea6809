(** RDF-style terms of a knowledge graph.

    Subjects, predicates and objects of temporal facts. We keep the model
    function-free (constants only), as required by the MLN/PSL translation:
    every term grounds to a constant of the Herbrand universe. *)

type t =
  | Iri of string      (** resource identifier, e.g. [dbp:Claudio_Ranieri] *)
  | Str of string      (** string literal *)
  | Int of int         (** integer literal (years, counts, ages) *)
  | Flt of float       (** floating point literal *)

val iri : string -> t
val str : string -> t
val int : int -> t
val float : float -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val is_literal : t -> bool

val as_int : t -> int option
(** Numeric view used by arithmetic rule conditions (e.g. [age < 20]):
    [Int n] and year-like [Iri]/[Str] values that parse as integers. *)

val pp : Format.formatter -> t -> unit
(** IRIs print bare, strings print quoted, integers print plainly. A
    float prints as the shortest literal that reads back to the same
    bits ({!Prelude.Floatlit.to_lexeme}), with a trailing ["."] where
    that literal would read as an integer. *)

val to_string : t -> string
(** The bytes {!pp} prints. *)

val of_string : string -> t
(** Inverse of {!to_string}: quoted strings become [Str], integers [Int],
    floats [Flt], everything else [Iri]. *)
