(** Indexed store of uncertain temporal facts — the UTKG.

    Facts get stable integer identifiers on insertion. Each fact is kept
    as a row of int codes into the graph's own symbol table (see
    {!symbols}) plus its confidence; {!find} and {!iter} rebuild the
    {!Quad.t}. The store keeps an index on predicate; removal is by
    tombstone so identifiers stay valid across debugging rounds. *)

type t

type id = int
(** Stable fact identifier within one store. *)

val create : unit -> t

val copy : ?room:int -> t -> t
(** Deep copy sharing no mutable state, its symbol table included, with
    room for [room] (default 0) more facts. *)

val add : t -> Quad.t -> id
(** Insert a fact, interning its predicate, subject, object and
    interval, in that order. Duplicate statements (same triple and
    interval) are allowed and get distinct ids — TeCoRe's input KGs are
    noisy. *)

val remove : t -> id -> unit
(** Tombstone a fact. Idempotent.
    @raise Invalid_argument on an unknown id. *)

val mem_id : t -> id -> bool
(** True when the id is live (inserted and not removed). *)

val find : t -> id -> Quad.t
(** The fact behind an id, live or tombstoned.
    @raise Invalid_argument on an unknown id. *)

val size : t -> int
(** Number of live facts. *)

val iter : (id -> Quad.t -> unit) -> t -> unit
(** Over live facts, in insertion order. *)

val to_list : t -> Quad.t list

val of_list : Quad.t list -> t

(** {1 Queries} *)

val by_predicate : t -> Term.t -> (id * Quad.t) list

val by_subject_predicate : t -> Term.t -> Term.t -> (id * Quad.t) list

val predicates : t -> (Term.t * int) list
(** Distinct predicates of live facts with their fact counts, sorted by
    descending count. Backs the constraint editor's auto-completion. *)

val pp : Format.formatter -> t -> unit
(** Lists live facts, one per line, in the paper's notation. *)

(** {1 Symbols}

    A graph interns every term and interval it stores into a table it
    owns: dense codes (0, 1, 2, ...) in first-intern order, separately
    for terms and intervals. The table is append-only, so a code names
    the same symbol for the life of the graph; {!copy} copies it, and it
    is freed with the graph. The grounder interns the symbols rule heads
    need (constants, intervals computed by [∩]) into the same table,
    only between parallel batches, so worker domains decode without a
    lock; the table takes none, as one graph is used by one thread at a
    time. *)

type symbols

val symbols : t -> symbols

val intern_term : symbols -> Term.t -> int
val find_term : symbols -> Term.t -> int option
(** Lookup without interning: [None] for a term never interned. *)

val term : symbols -> int -> Term.t
(** @raise Invalid_argument on a code never returned by {!intern_term}. *)

val intern_interval : symbols -> Interval.t -> int
val find_interval : symbols -> Interval.t -> int option
val interval : symbols -> int -> Interval.t

val term_count : symbols -> int
val interval_count : symbols -> int

val add_codes :
  t ->
  predicate:int ->
  subject:int ->
  object_:int ->
  interval:int ->
  confidence:float ->
  id
(** {!add} for a fact whose symbols this graph's table already codes —
    codes it gave, or its original gave before a {!copy}, which keeps
    every code: no term is hashed. *)

val iter_codes :
  (id -> predicate:int -> subject:int -> object_:int -> interval:int ->
   confidence:float -> unit) ->
  t ->
  unit
(** {!iter} over the live facts' codes, rebuilding no {!Quad.t}. *)
