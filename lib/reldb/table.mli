(** In-memory relational tables, stored columnar as interned codes.

    Rows live column-major: one unboxed [int] array of {!Value.code}s
    per column, so a million-row table is [width] flat allocations the
    GC never scans and joins hash plain ints. Rows go in and come out
    as codes; callers decode single cells with the {!Value} decoders. *)

type t

val create : name:string -> columns:string list -> t
(** @raise Invalid_argument on duplicate column names. *)

val reserve : t -> int -> unit
(** Pre-size every column's backing array for at least [rows] rows —
    callers that know the row count up front (e.g. a join concatenating
    partition outputs) avoid the doubling-growth garbage of a
    million-row append. *)

val name : t -> string
val columns : t -> string list
val width : t -> int
val cardinal : t -> int

val column_index : t -> string -> int
(** @raise Not_found for an unknown column. *)

val insert_codes : t -> Value.code array -> unit
(** Append a row of codes.
    @raise Invalid_argument when the row width mismatches. *)

val column_data : t -> int -> int array
(** The raw backing array of a column: entries [0 .. cardinal t - 1]
    are live codes, anything past that is garbage. Invalidated by the
    next insert. For tight scan/join loops. *)

val count_for : t -> col:int -> code:Value.code -> int
(** Occurrences of [code] in the column — the per-value cardinality the
    join-order heuristic uses as a selectivity estimate. Amortised
    O(1): a per-column count table is built on first use and rebuilt
    when the table has grown since. *)
