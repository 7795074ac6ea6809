(** Synthetic FootballDB.

    The paper extracts temporal facts about American-football players from
    footballdb.com: >13 K [playsFor] facts and >6 K [birthDate] facts.
    This generator reproduces that workload shape deterministically:
    players with a birth year, a debut in their early twenties and one to
    four club stints that never overlap; at the default 6 500 players it
    emits ≈ 6.5 K birthDate and ≈ 14 K playsFor facts.

    Noise injection reproduces the paper's "highly noisy setting where
    there are as many erroneous temporal facts as the correct ones":
    [noise_ratio] is the erroneous/correct fact ratio, and every planted
    error is reported so benches can score the debugger's precision and
    recall — something the real scraped data cannot provide. Error types:
    overlapping stints at a second team, stints before a plausible debut
    age, and conflicting second birth years. *)

type dataset = {
  graph : Kg.Graph.t;
  planted : Kg.Graph.id list;  (** ids of the injected erroneous facts *)
  players : int;
  clean_facts : int;
}

val generate :
  ?seed:int -> ?players:int -> ?noise_ratio:float -> unit -> dataset
(** Defaults: [seed = 1], [players = 6500], [noise_ratio = 0.0]. *)

val constraints : unit -> Logic.Rule.t list
(** The FootballDB constraint set:
    - [fb_one_team]: a player plays for one team at a time (hard);
    - [fb_one_birth]: a player has a single birth year (hard);
    - [fb_debut_age]: a stint starts at age 15 or later (hard). *)

val rules : unit -> Logic.Rule.t list
(** One soft inference rule ([fb_veteran]): a player with a stint
    starting past age 30 is a veteran. Exercises the inference path on
    this dataset. *)
