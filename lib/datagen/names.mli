(** Deterministic entity-name pools for the synthetic datasets.

    The paper's datasets are scraped (footballdb.com, Wikidata) and not
    redistributable; our generators synthesise entities with readable
    names so demo output stays interpretable. *)

val person : Prelude.Prng.t -> int -> string
(** [person rng i] — a unique person IRI local name, e.g.
    [P4123_Marcus_Bell]. The [i] suffix guarantees uniqueness. *)

val football_teams : string array
(** 32 synthetic pro-football franchises. *)

val football_clubs : string array
(** 40 synthetic soccer clubs (for the running-example domain). *)

val universities : string array

val organisations : string array

val occupations : string array
