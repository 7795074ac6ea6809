(** Indexed store of uncertain temporal facts — the UTKG.

    Facts get stable integer identifiers on insertion. The store keeps
    hash indexes on predicate and (subject, predicate); removal is by tombstone so identifiers
    stay valid across debugging rounds. *)

type t

type id = int
(** Stable fact identifier within one store. *)

val create : unit -> t

val copy : t -> t
(** Deep copy sharing no mutable state. *)

val add : t -> Quad.t -> id
(** Insert a fact. Duplicate statements (same triple and interval) are
    allowed and get distinct ids — TeCoRe's input KGs are noisy. *)

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
