(** Recursive-descent parser for the rule and constraint language.

    Surface syntax (one statement per declaration, mirroring the paper's
    Figures 4 and 6):

    {v
    rule f1 2.5:  playsFor(x, y)@t => worksFor(x, y)@t .
    rule f2 1.6:  worksFor(x, y)@t ^ locatedIn(y, z)@t2 ^ overlaps(t, t2)
                  => livesIn(x, z)@(t * t2) .
    rule f3 2.9:  playsFor(x, y)@t ^ birthDate(x, z)@t2 ^ t - t2 < 20
                  => TeenPlayer(x) .
    constraint c1: birthDate(x, y)@t ^ deathDate(x, z)@t2 => before(t, t2) .
    constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z
                   => disjoint(t, t2) .
    constraint c3: bornIn(x, y)@t ^ bornIn(x, z)@t2 ^ overlaps(t, t2)
                   => y = z .
    v}

    Conventions:
    - identifiers starting with a lower-case letter are variables;
      everything else ([Chelsea], [ex:CR], [1951], ["literal"]) is a
      constant — the paper's Datalog convention;
    - [@t] attaches a validity interval to an atom; [@(t * t2)] is
      interval intersection, [@(t + t2)] the hull (heads only);
    - conditions use Allen relation names ([before], [overlaps],
      [disjoint], [intersects], ...), arithmetic over [start(t)],
      [end(t)], [length(t)], [value(x)] and integers, and [=]/[!=]
      between object terms;
    - in arithmetic, a bare variable that is used as a temporal variable
      elsewhere in the rule denotes its interval start — so the paper's
      [t - t2 < 20] (age at time [t]) reads exactly as written;
    - the paper's quad notation [quad(x, playsFor, y, t)] is accepted as
      sugar for [playsFor(x, y)@t] (the predicate position must be a
      constant);
    - a [constraint] without a weight is hard; [rule]s take an optional
      weight after their name;
    - [=>] or [->] separates body and head; [false] as head is a denial;
      statements end with an optional [.]. *)

type error = { line : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse_string :
  ?namespace:Kg.Namespace.t -> string -> (Logic.Rule.t list, error) result
(** Parse a program. When a namespace is supplied, predicate names and
    IRI constants are expanded through it. *)

val parse_file :
  ?namespace:Kg.Namespace.t -> string -> (Logic.Rule.t list, error) result

val parse_query :
  ?namespace:Kg.Namespace.t ->
  string ->
  (Logic.Atom.t list * Logic.Cond.t list, error) result
(** Parse a body-only expression — a temporal conjunctive query such as
    ["coach(x, y)@t ^ coach(x, z)@t2 ^ intersects(t, t2)"]. Bare temporal
    variables in arithmetic are resolved exactly as in rule bodies. *)
