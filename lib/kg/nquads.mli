(** Text serialisation of uncertain temporal knowledge graphs.

    The format is an N-Quads-style line format extended with a validity
    interval and an optional confidence, matching the paper's notation:

    {v
    @prefix ex: <http://example.org/> .
    # subject predicate object interval confidence .
    ex:CR ex:coach ex:Chelsea [2000,2004] 0.9 .
    ex:CR ex:birthDate 1951 [1951,2017] .
    v}

    Terms are CURIEs (expanded through the prefix table), [<full-iris>],
    double-quoted strings, or numeric literals. Missing confidence means
    1.0. Lines starting with [#] and blank lines are ignored. *)

type error = {
  line : int;               (** 1-based *)
  column : int option;
      (** 1-based, on the raw line (indentation counts); [Some] for
          lexical errors (unterminated string/iri/interval), [None] for
          structural ones (field count, bad confidence) *)
  message : string;
}

val pp_error : Format.formatter -> error -> unit
(** ["line L, column C: msg"] when the column is known, else
    ["line L: msg"]. *)

val parse_string : ?namespace:Namespace.t -> string -> (Graph.t, error) result
(** Parse a whole document. The prefix table collects [@prefix] directives
    encountered in the document (it may be pre-populated). *)

val parse_file : ?namespace:Namespace.t -> string -> (Graph.t, error) result

val parse_quad : Namespace.t -> string -> (Quad.t, string) result
(** Parse a single fact line (no directives). Lexical errors embed the
    column in the message text (["... (column C)"]); {!parse_string}
    callers get it structured via [error.column] instead. *)

val parse_prefix : string -> (string * string, string) result option
(** [parse_prefix line] reads an [@prefix] directive from a trimmed
    line: [None] when the line does not start with [@prefix],
    [Some (Ok (prefix, iri))] for ["@prefix ex: <http://...> ."] and
    [Some (Error "malformed @prefix")] otherwise. The one [@prefix]
    parser: UTKG files and the server's journal replay share it. *)

val fact_line : Namespace.t -> Quad.t -> string
(** One fact as a line of this format, without the newline: IRIs shrunk
    through the prefix table, floats written to reparse as the same
    float (a float object keeps its decimal point, so [2.0] is ["2."]
    rather than the integer ["2"]). The one fact printer: {!to_string},
    {!save_file} and the server's state dump write facts through it. *)

val to_string : ?namespace:Namespace.t -> Graph.t -> string
(** Serialise; IRIs are shrunk through the prefix table and the table's
    bindings are emitted as [@prefix] directives. *)

val save_file : ?namespace:Namespace.t -> string -> Graph.t -> unit
