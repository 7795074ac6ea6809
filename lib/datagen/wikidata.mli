(** Synthetic Wikidata-style UTKG.

    The paper extracts 6.3 M temporal facts from Wikidata over the
    relations [playsFor] (>4 M), [spouse] (>20 K), [memberOf] (>23 K),
    [educatedAt] (>6 K) and [occupation] (>4.5 K). We reproduce the shape
    at a configurable size: [playsFor] dominates (64 %), the four long-tail
    relations share the rest (the paper's unnamed remainder is folded into
    them, preserving playsFor dominance — documented substitution).

    [conflict_rate] plants conflicting facts — overlapping second clubs
    and overlapping second spouses — at the requested fraction of the
    total, which is what Figure 8's statistics screen counts (19,734
    conflicting facts out of 243,157 ≈ 8.1 %). *)

type dataset = {
  graph : Kg.Graph.t;
  planted : Kg.Graph.id list;
  relation_counts : (string * int) list;
}

val generate :
  ?seed:int -> ?total_facts:int -> ?conflict_rate:float -> unit -> dataset
(** Defaults: [seed = 2], [total_facts = 63_000] (the paper's corpus at
    1:100), [conflict_rate = 0.0]. *)

val generate_regime : ?seed:int -> string -> dataset
(** [generate_regime name] pins the generation parameters of a named
    regime (default [seed = 2], 1 % planted conflicts) so benchmark
    gates always measure the corpus their committed baselines were
    measured on.
    @raise Invalid_argument for an unknown regime name. *)

val constraints : unit -> Logic.Rule.t list
(** - [wd_one_club]: one club at a time (hard);
    - [wd_one_spouse]: one spouse at a time (hard);
    - [wd_member_after_education]: membership in an organisation starts
      no earlier than first education (soft, weight 0.8) — an example of
      an inclusion-style soft constraint over the long-tail relations. *)

val rules : unit -> Logic.Rule.t list
(** [wd_player_occupation]: a club player has occupation [Athlete] over
    the same interval (soft, weight 1.2). *)
