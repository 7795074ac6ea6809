module Prng = Prelude.Prng

type dataset = {
  graph : Kg.Graph.t;
  planted : Kg.Graph.id list;
  relation_counts : (string * int) list;
}

let horizon = 2017

let confidence rng = 0.55 +. Prng.float rng 0.4
let conflict_confidence rng = 0.5 +. Prng.float rng 0.3

(* Fraction of the total allocated to each relation (playsFor dominates,
   as in the paper's 4M/6.3M). *)
let shares =
  [
    ("playsFor", 0.64);
    ("memberOf", 0.12);
    ("spouse", 0.12);
    ("educatedAt", 0.06);
    ("occupation", 0.06);
  ]

type entity = {
  name : string;
  mutable clubs : (string * Kg.Interval.t) list;
  mutable spouses : (string * Kg.Interval.t) list;
}

let fresh_interval rng =
  let start = Prng.range rng 1950 2012 in
  let finish = min horizon (start + Prng.range rng 1 10) in
  Kg.Interval.make start finish

(* An interval after [prev] (gap >= 1 so hard disjointness holds). *)
let interval_after rng prev =
  let start = Kg.Interval.hi prev + 1 + Prng.range rng 1 4 in
  if start >= horizon then None
  else
    let finish = min horizon (start + Prng.range rng 1 8) in
    Some (Kg.Interval.make start finish)

let generate ?(seed = 2) ?(total_facts = 63_000) ?(conflict_rate = 0.0) () =
  let rng = Prng.create seed in
  let graph = Kg.Graph.create () in
  let planted = ref [] in
  let conflicts_wanted =
    int_of_float (Float.round (conflict_rate *. float_of_int total_facts))
  in
  let clean_wanted = total_facts - conflicts_wanted in
  (* Entity pool: roughly one entity per six facts keeps careers dense
     enough for joins to matter without quadratic blowups. *)
  let num_entities = max 10 (clean_wanted / 6) in
  let entities =
    Array.init num_entities (fun i ->
        { name = Names.person rng i; clubs = []; spouses = [] })
  in
  let counts = Hashtbl.create 8 in
  let bump relation =
    Hashtbl.replace counts relation
      (1 + Option.value (Hashtbl.find_opt counts relation) ~default:0)
  in
  let add relation entity object_ interval conf =
    let id =
      Kg.Graph.add graph
        (Kg.Quad.v entity relation object_
           (Kg.Interval.lo interval, Kg.Interval.hi interval)
           conf)
    in
    bump relation;
    id
  in
  let emit_clean relation =
    let e = Prng.pick rng entities in
    match relation with
    | "playsFor" ->
        let club = Prng.pick rng Names.football_clubs in
        let interval =
          match e.clubs with
          | [] -> Some (fresh_interval rng)
          | (_, last) :: _ -> interval_after rng last
        in
        (match interval with
        | None -> false
        | Some interval ->
            e.clubs <- (club, interval) :: e.clubs;
            ignore (add "playsFor" e.name (Kg.Term.iri club) interval (confidence rng));
            true)
    | "spouse" ->
        let partner = Names.person rng (num_entities + Prng.int rng 100_000) in
        let interval =
          match e.spouses with
          | [] -> Some (fresh_interval rng)
          | (_, last) :: _ -> interval_after rng last
        in
        (match interval with
        | None -> false
        | Some interval ->
            e.spouses <- (partner, interval) :: e.spouses;
            ignore (add "spouse" e.name (Kg.Term.iri partner) interval (confidence rng));
            true)
    | "memberOf" ->
        ignore
          (add "memberOf" e.name
             (Kg.Term.iri (Prng.pick rng Names.organisations))
             (fresh_interval rng) (confidence rng));
        true
    | "educatedAt" ->
        let start = Prng.range rng 1950 2000 in
        let interval = Kg.Interval.make start (start + Prng.range rng 2 5) in
        ignore
          (add "educatedAt" e.name
             (Kg.Term.iri (Prng.pick rng Names.universities))
             interval (confidence rng));
        true
    | _ ->
        ignore
          (add "occupation" e.name
             (Kg.Term.iri (Prng.pick rng Names.occupations))
             (fresh_interval rng) (confidence rng));
        true
  in
  (* Emit clean facts according to the relation shares. *)
  List.iter
    (fun (relation, share) ->
      let want = int_of_float (share *. float_of_int clean_wanted) in
      let emitted = ref 0 in
      let attempts = ref 0 in
      while !emitted < want && !attempts < want * 20 do
        incr attempts;
        if emit_clean relation then incr emitted
      done)
    shares;
  (* Plant conflicts: overlapping second club / second spouse. *)
  let emitted = ref 0 in
  let attempts = ref 0 in
  while !emitted < conflicts_wanted && !attempts < conflicts_wanted * 20 do
    incr attempts;
    let e = Prng.pick rng entities in
    let plant relation existing other =
      match existing with
      | [] -> false
      | _ ->
          let prev_obj, prev = Prng.pick_list rng existing in
          let lo = Kg.Interval.lo prev and hi = Kg.Interval.hi prev in
          let start = Prng.range rng lo hi in
          let finish = min horizon (start + Prng.range rng 1 5) in
          let obj = other prev_obj in
          let id =
            add relation e.name (Kg.Term.iri obj)
              (Kg.Interval.make start finish)
              (conflict_confidence rng)
          in
          planted := id :: !planted;
          true
    in
    let ok =
      if Prng.bernoulli rng 0.8 then
        plant "playsFor" e.clubs (fun prev ->
            let rec pick () =
              let c = Prng.pick rng Names.football_clubs in
              if c = prev then pick () else c
            in
            pick ())
      else
        plant "spouse" e.spouses (fun _ ->
            Names.person rng (num_entities + 200_000 + Prng.int rng 100_000))
    in
    if ok then incr emitted
  done;
  let relation_counts =
    Hashtbl.fold (fun r c acc -> (r, c) :: acc) counts []
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  in
  { graph; planted = List.rev !planted; relation_counts }

(* Named scale regimes: generation parameters are pinned here so that
   the benchmark suite's wd-psl workload and [bench par] always measure
   the same corpus (seed 2, 1 % planted conflicts). *)
let regimes = [ ("1e5", 100_000) ]

let generate_regime ?(seed = 2) name =
  match List.assoc_opt name regimes with
  | Some total_facts -> generate ~seed ~total_facts ~conflict_rate:0.01 ()
  | None ->
      invalid_arg
        (Printf.sprintf "Wikidata.generate_regime: unknown regime %s (known: %s)"
           name
           (String.concat ", " (List.map fst regimes)))

let parse_rules src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e ->
      failwith (Format.asprintf "Wikidata: %a" Rulelang.Parser.pp_error e)

let constraints () =
  parse_rules
    {|
constraint wd_one_club:
  playsFor(x, y)@t ^ playsFor(x, z)@t2 ^ y != z => disjoint(t, t2) .
constraint wd_one_spouse:
  spouse(x, y)@t ^ spouse(x, z)@t2 ^ y != z => disjoint(t, t2) .
constraint wd_member_after_education 0.8:
  memberOf(x, y)@t ^ educatedAt(x, z)@t2 => start(t2) <= start(t) .
|}

let rules () =
  parse_rules
    {|
rule wd_player_occupation 1.2:
  playsFor(x, y)@t => occupation(x, Athlete)@t .
|}
