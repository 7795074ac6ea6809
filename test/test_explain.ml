(* Tests for removal and derivation explanations. *)

module E = Tecore.Explain

let parse_rules src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)

let cr_rules () =
  parse_rules
    {|constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .
rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t .|}

let cr_graph () =
  Kg.Graph.of_list
    [
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9;
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6;
      Kg.Quad.v "CR" "playsFor" (Kg.Term.iri "Palermo") (1984, 1986) 0.5;
    ]

let test_removal_explained_by_clash () =
  let graph = cr_graph () in
  let result = Tecore.Engine.resolve graph (cr_rules ()) in
  let removals, _ = E.of_result graph result in
  match removals with
  | [ r ] -> (
      Alcotest.(check string) "napoli removed" "Napoli"
        (Kg.Term.to_string r.E.quad.Kg.Quad.object_);
      match r.E.clashes with
      | [ clash ] ->
          Alcotest.(check string) "constraint name" "c2" clash.E.constraint_name;
          Alcotest.(check int) "one winner" 1 (List.length clash.E.winners);
          Alcotest.(check string) "chelsea won" "Chelsea"
            (Kg.Term.to_string (List.hd clash.E.winners).Kg.Quad.object_);
          Alcotest.(check bool) "winner outweighs loser" true
            (clash.E.winner_weight > clash.E.loser_weight)
      | clashes ->
          Alcotest.fail (Printf.sprintf "expected 1 clash, got %d" (List.length clashes)))
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 removal, got %d" (List.length rs))

let test_low_confidence_removal_has_no_clash () =
  (* A fact below confidence 0.5 is dropped by its own weight. *)
  let graph =
    Kg.Graph.of_list [ Kg.Quad.v "a" "p" (Kg.Term.iri "b") (1, 2) 0.2 ]
  in
  let result = Tecore.Engine.resolve graph [] in
  let removals, _ = E.of_result graph result in
  match removals with
  | [ r ] -> Alcotest.(check int) "no clash" 0 (List.length r.E.clashes)
  | _ -> Alcotest.fail "expected one removal"

let test_derivation_explained () =
  let graph = cr_graph () in
  let result = Tecore.Engine.resolve graph (cr_rules ()) in
  let _, derivations = E.of_result graph result in
  match derivations with
  | [ d ] -> (
      Alcotest.(check string) "worksFor derived" "worksFor"
        d.E.atom.Logic.Atom.Ground.predicate;
      match d.E.via with
      | [ (rule, support) ] ->
          Alcotest.(check string) "via f1" "f1" rule;
          Alcotest.(check int) "one supporting fact" 1 (List.length support);
          Alcotest.(check string) "palermo supports" "Palermo"
            (Kg.Term.to_string (List.hd support).Kg.Quad.object_)
      | _ -> Alcotest.fail "expected one firing rule")
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 derivation, got %d" (List.length ds))

let test_chained_derivation_support () =
  (* The second derivation's direct support is the first (hidden) atom,
     so its evidence support is the playsFor fact transitively only when
     listed in the instance body; via f2 the evidence support is the
     locatedIn fact. *)
  let graph =
    Kg.Graph.of_list
      [
        Kg.Quad.v "CR" "playsFor" (Kg.Term.iri "Palermo") (1984, 1986) 0.5;
        Kg.Quad.v "Palermo" "locatedIn" (Kg.Term.iri "Sicily") (1900, 2017) 1.0;
      ]
  in
  let rules =
    parse_rules
      {|rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t .
rule f2 1.6: worksFor(x, y)@t ^ locatedIn(y, z)@t2 ^ intersects(t, t2) => livesIn(x, z)@(t * t2) .|}
  in
  let result = Tecore.Engine.resolve graph rules in
  let _, derivations = E.of_result graph result in
  let lives =
    List.find_opt
      (fun d -> d.E.atom.Logic.Atom.Ground.predicate = "livesIn")
      derivations
  in
  match lives with
  | Some d -> (
      match d.E.via with
      | [ ("f2", support) ] ->
          Alcotest.(check int) "evidence support (locatedIn only)" 1
            (List.length support)
      | _ -> Alcotest.fail "expected f2 firing")
  | None -> Alcotest.fail "livesIn not derived"

let test_pp_smoke () =
  let graph = cr_graph () in
  let result = Tecore.Engine.resolve graph (cr_rules ()) in
  let removals, derivations = E.of_result graph result in
  List.iter
    (fun r ->
      let s = Format.asprintf "%a" E.pp_removal r in
      Alcotest.(check bool) "non-empty" true (String.length s > 0))
    removals;
  List.iter
    (fun d ->
      let s = Format.asprintf "%a" E.pp_derivation d in
      Alcotest.(check bool) "non-empty" true (String.length s > 0))
    derivations

(* The explainer that scanned every atom per removed fact and every
   instance per removed or derived fact, kept verbatim: the reference
   for the indexed one. *)
module Reference = struct
  module Store = Grounder.Atom_store
  module Instance = Instance_view
  module Conflict = Tecore.Conflict

  type removal = E.removal = {
    fact : Kg.Graph.id;
    quad : Kg.Quad.t;
    clashes : clash list;
  }

  and clash = E.clash = {
    constraint_name : string;
    winners : Kg.Quad.t list;
    winner_weight : float;
    loser_weight : float;
  }

  type derivation = E.derivation = {
    atom : Logic.Atom.Ground.t;
    via : (string * Kg.Quad.t list) list;
  }

  (* The atom id of a removed evidence fact. *)
  let atom_of_fact store fact =
    let found = ref None in
    Store.iter
      (fun id _ origin ->
        match origin with
        | Store.Evidence _ when !found = None ->
            if List.mem fact (Store.evidence_facts store id) then found := Some id
        | _ -> ())
      store;
    !found

  let quads_of_atoms store graph atom_ids =
    List.concat_map
      (fun id ->
        List.map (Kg.Graph.find graph) (Store.evidence_facts store id))
      atom_ids

  let removals ~store ~instances ~assignment ~graph ~resolution =
    List.map
      (fun (fact, quad) ->
        let atom_id = atom_of_fact store fact in
        (* Symmetric groundings (both orders of a self-join) describe the
           same clash; dedupe on constraint name and partner atoms. *)
        let seen = Hashtbl.create 8 in
        let clashes =
          match atom_id with
          | None -> []
          | Some removed_atom ->
              List.filter_map
                (fun { Instance.rule; body_atoms; head } ->
                  (* A clash explains the removal when the instance is a
                     violation containing the removed atom whose other
                     body atoms all survived. *)
                  if
                    head = Instance.Violated
                    && List.mem removed_atom body_atoms
                  then begin
                    let others =
                      List.filter (fun a -> a <> removed_atom) body_atoms
                    in
                    let key =
                      (rule.Logic.Rule.name, List.sort Int.compare others)
                    in
                    if
                      List.for_all (fun a -> assignment.(a)) others
                      && not (Hashtbl.mem seen key)
                    then begin
                      Hashtbl.replace seen key ();
                      let winners = quads_of_atoms store graph others in
                      if winners = [] then None
                      else
                        Some
                          {
                            constraint_name = rule.Logic.Rule.name;
                            winners;
                            winner_weight =
                              List.fold_left
                                (fun acc q -> Float.min acc (Kg.Quad.weight q))
                                infinity winners;
                            loser_weight = Kg.Quad.weight quad;
                          }
                    end
                    else None
                  end
                  else None)
                instances
        in
        { fact; quad; clashes })
      resolution.Conflict.removed

  let derivations ~store ~instances ~assignment ~graph ~resolution =
    List.map
      (fun (d : Conflict.derived_fact) ->
        let atom = Conflict.derived_atom resolution d in
        let atom_id = Store.find store atom in
        let via =
          match atom_id with
          | None -> []
          | Some id ->
              List.filter_map
                (fun { Instance.rule; body_atoms; head } ->
                  match head with
                  | Instance.Derives h
                    when h = id
                         && List.for_all (fun a -> assignment.(a)) body_atoms ->
                      let evidence_support =
                        List.filter (Store.is_evidence store) body_atoms
                      in
                      Some
                        ( rule.Logic.Rule.name,
                          quads_of_atoms store graph evidence_support )
                  | _ -> None)
                instances
        in
        { atom; via })
      resolution.Conflict.derived
end

(* The indexed explainer against the reference on one resolve per
   engine; the graph must produce removals, clashes and derivations for
   the comparison to bite. *)
let check_against_reference name graph rules =
  List.iter
    (fun engine ->
      let result = Tecore.Engine.resolve ~engine graph rules in
      let raw = result.Tecore.Engine.raw in
      let reference f =
        f ~store:raw.Tecore.Engine.store
          ~instances:(Instance_view.of_instances raw.Tecore.Engine.instances)
          ~assignment:raw.Tecore.Engine.assignment ~graph
          ~resolution:result.Tecore.Engine.resolution
      in
      let removals, derivations = E.of_result graph result in
      Alcotest.(check bool)
        (name ^ ": some removal has a clash") true
        (List.exists (fun r -> r.E.clashes <> []) removals);
      Alcotest.(check bool)
        (name ^ ": some derivation fires") true
        (List.exists (fun d -> d.E.via <> []) derivations);
      Alcotest.(check bool)
        (name ^ ": removals = reference") true
        (removals = reference Reference.removals);
      Alcotest.(check bool)
        (name ^ ": derivations = reference") true
        (derivations = reference Reference.derivations))
    [
      Tecore.Engine.Mln Mln.Map_inference.default_options;
      Tecore.Engine.Psl Psl.Npsl.default_options;
    ]

let test_footballdb_matches_reference () =
  let d =
    Datagen.Footballdb.generate ~seed:1 ~players:150 ~noise_ratio:0.5 ()
  in
  check_against_reference "FootballDB-150" d.Datagen.Footballdb.graph
    (Datagen.Footballdb.constraints () @ Datagen.Footballdb.rules ())

let test_data_file_matches_reference () =
  let ns = Kg.Namespace.create () in
  let graph =
    match Kg.Nquads.parse_file ~namespace:ns "../data/football.tq" with
    | Ok g -> g
    | Error e -> Alcotest.failf "football.tq: %a" Kg.Nquads.pp_error e
  in
  let rules =
    match Rulelang.Parser.parse_file ~namespace:ns "../data/football.rules" with
    | Ok r -> r
    | Error e -> Alcotest.failf "football.rules: %a" Rulelang.Parser.pp_error e
  in
  check_against_reference "data/football.tq" graph rules

let () =
  Alcotest.run "explain"
    [
      ( "removals",
        [
          Alcotest.test_case "clash explanation" `Quick
            test_removal_explained_by_clash;
          Alcotest.test_case "own-weight removal" `Quick
            test_low_confidence_removal_has_no_clash;
        ] );
      ( "derivations",
        [
          Alcotest.test_case "direct" `Quick test_derivation_explained;
          Alcotest.test_case "chained" `Quick test_chained_derivation_support;
          Alcotest.test_case "pp" `Quick test_pp_smoke;
        ] );
      ( "reference",
        [
          Alcotest.test_case "FootballDB-150" `Quick
            test_footballdb_matches_reference;
          Alcotest.test_case "data/football.tq" `Quick
            test_data_file_matches_reference;
        ] );
    ]
