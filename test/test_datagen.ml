(* Tests for the synthetic dataset generators: determinism, cardinality
   shapes matching the paper, clean-data consistency and planted-noise
   detectability. *)

module FB = Datagen.Footballdb
module WD = Datagen.Wikidata

let test_footballdb_deterministic () =
  let a = FB.generate ~seed:5 ~players:200 ~noise_ratio:0.2 () in
  let b = FB.generate ~seed:5 ~players:200 ~noise_ratio:0.2 () in
  Alcotest.(check int) "same size" (Kg.Graph.size a.FB.graph)
    (Kg.Graph.size b.FB.graph);
  List.iter2
    (fun qa qb ->
      Alcotest.(check bool) "same fact" true (qa = qb))
    (Kg.Graph.to_list a.FB.graph)
    (Kg.Graph.to_list b.FB.graph);
  Alcotest.(check (list int)) "same planted ids" a.FB.planted b.FB.planted;
  let c = FB.generate ~seed:6 ~players:200 ~noise_ratio:0.2 () in
  Alcotest.(check bool) "different seed differs" false
    (Kg.Graph.size c.FB.graph = Kg.Graph.size a.FB.graph
    && Kg.Graph.to_list c.FB.graph = Kg.Graph.to_list a.FB.graph)

let test_footballdb_shape () =
  let d = FB.generate ~players:6500 () in
  let count p =
    List.length (Kg.Graph.by_predicate d.FB.graph (Kg.Term.iri p))
  in
  (* Paper: >13K playsFor, >6K birthDate. *)
  Alcotest.(check bool)
    (Printf.sprintf "playsFor %d > 13000" (count "playsFor"))
    true
    (count "playsFor" > 13_000);
  Alcotest.(check int) "one birthDate per player" 6500 (count "birthDate");
  Alcotest.(check int) "no planted noise by default" 0 (List.length d.FB.planted)

let test_footballdb_clean_is_consistent () =
  let d = FB.generate ~players:300 () in
  let result =
    Tecore.Engine.resolve
      ~engine:(Tecore.Engine.Psl Psl.Npsl.default_options)
      d.FB.graph (FB.constraints ())
  in
  Alcotest.(check int) "no conflicts in clean data" 0
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.conflicting);
  Alcotest.(check int) "nothing removed" 0
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.removed)

let test_footballdb_noise_ratio () =
  let d = FB.generate ~players:500 ~noise_ratio:0.5 () in
  let planted = List.length d.FB.planted in
  let expected = int_of_float (0.5 *. float_of_int d.FB.clean_facts) in
  Alcotest.(check bool)
    (Printf.sprintf "planted %d ~ %d" planted expected)
    true
    (abs (planted - expected) <= expected / 10);
  Alcotest.(check int) "graph holds clean + noise"
    (d.FB.clean_facts + planted)
    (Kg.Graph.size d.FB.graph)

let test_footballdb_noise_is_conflicting () =
  let d = FB.generate ~seed:3 ~players:400 ~noise_ratio:0.4 () in
  let result =
    Tecore.Engine.resolve
      ~engine:(Tecore.Engine.Psl Psl.Npsl.default_options)
      d.FB.graph (FB.constraints ())
  in
  let conflicting = result.Tecore.Engine.resolution.Tecore.Conflict.conflicting in
  (* Most planted errors participate in a detected conflict. *)
  let detected =
    List.length (List.filter (fun id -> List.mem id conflicting) d.FB.planted)
  in
  let rate = float_of_int detected /. float_of_int (List.length d.FB.planted) in
  Alcotest.(check bool)
    (Printf.sprintf "detected rate %.2f > 0.9" rate)
    true (rate > 0.9)

let test_footballdb_debugging_quality () =
  let d = FB.generate ~seed:4 ~players:400 ~noise_ratio:0.5 () in
  let result =
    Tecore.Engine.resolve
      ~engine:(Tecore.Engine.Psl Psl.Npsl.default_options)
      d.FB.graph (FB.constraints ())
  in
  let removed =
    List.map fst result.Tecore.Engine.resolution.Tecore.Conflict.removed
  in
  let tp = List.length (List.filter (fun id -> List.mem id d.FB.planted) removed) in
  let precision = float_of_int tp /. float_of_int (max 1 (List.length removed)) in
  let recall = float_of_int tp /. float_of_int (max 1 (List.length d.FB.planted)) in
  Alcotest.(check bool)
    (Printf.sprintf "precision %.2f > 0.7" precision)
    true (precision > 0.7);
  Alcotest.(check bool)
    (Printf.sprintf "recall %.2f > 0.7" recall)
    true (recall > 0.7)

let test_footballdb_rules_parse () =
  Alcotest.(check int) "three constraints" 3 (List.length (FB.constraints ()));
  Alcotest.(check int) "one rule" 1 (List.length (FB.rules ()));
  List.iter
    (fun r ->
      Alcotest.(check bool) "constraints are hard" true (Logic.Rule.is_hard r))
    (FB.constraints ())

let test_wikidata_deterministic () =
  let a = WD.generate ~seed:9 ~total_facts:2000 ~conflict_rate:0.1 () in
  let b = WD.generate ~seed:9 ~total_facts:2000 ~conflict_rate:0.1 () in
  Alcotest.(check int) "same size" (Kg.Graph.size a.WD.graph)
    (Kg.Graph.size b.WD.graph);
  Alcotest.(check (list int)) "same planted" a.WD.planted b.WD.planted

let test_wikidata_shape () =
  let d = WD.generate ~total_facts:20_000 () in
  let counts = d.WD.relation_counts in
  let count r = Option.value (List.assoc_opt r counts) ~default:0 in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  Alcotest.(check bool)
    (Printf.sprintf "total %d within 10%% of 20000" total)
    true
    (abs (total - 20_000) < 2_000);
  (* playsFor dominates, as in the paper's 4M of 6.3M. *)
  Alcotest.(check bool) "playsFor majority" true
    (count "playsFor" * 2 > total);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " present") true (count r > 0))
    [ "playsFor"; "spouse"; "memberOf"; "educatedAt"; "occupation" ]

let test_wikidata_clean_is_consistent () =
  let d = WD.generate ~total_facts:3000 () in
  let result =
    Tecore.Engine.resolve
      ~engine:(Tecore.Engine.Psl Psl.Npsl.default_options)
      d.WD.graph (WD.constraints ())
  in
  (* The two hard constraints hold on clean data (the soft education
     constraint may be violated; it must not remove anything on its own
     beyond confidence trade-offs, so we only check hard conflicts). *)
  Alcotest.(check int) "no hard conflicts" 0
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.conflicting)

let test_wikidata_conflict_rate () =
  let d = WD.generate ~total_facts:10_000 ~conflict_rate:0.0812 () in
  let planted = List.length d.WD.planted in
  Alcotest.(check bool)
    (Printf.sprintf "planted %d ~ 812" planted)
    true
    (abs (planted - 812) <= 81)

let test_wikidata_conflicts_detected () =
  let d = WD.generate ~seed:21 ~total_facts:5000 ~conflict_rate:0.08 () in
  let result =
    Tecore.Engine.resolve
      ~engine:(Tecore.Engine.Psl Psl.Npsl.default_options)
      d.WD.graph (WD.constraints ())
  in
  let conflicting = result.Tecore.Engine.resolution.Tecore.Conflict.conflicting in
  let detected =
    List.length (List.filter (fun id -> List.mem id conflicting) d.WD.planted)
  in
  let rate = float_of_int detected /. float_of_int (List.length d.WD.planted) in
  Alcotest.(check bool)
    (Printf.sprintf "planted conflicts detected: %.2f > 0.9" rate)
    true (rate > 0.9)

let test_wikidata_rules_parse () =
  Alcotest.(check int) "three constraints" 3 (List.length (WD.constraints ()));
  Alcotest.(check int) "one rule" 1 (List.length (WD.rules ()))

let test_names_pools () =
  Alcotest.(check int) "32 teams" 32 (Array.length Datagen.Names.football_teams);
  Alcotest.(check bool) "clubs distinct" true
    (let l = Array.to_list Datagen.Names.football_clubs in
     List.length (List.sort_uniq String.compare l) = List.length l);
  let rng = Prelude.Prng.create 1 in
  let a = Datagen.Names.person rng 1 and b = Datagen.Names.person rng 2 in
  Alcotest.(check bool) "unique person names" false (String.equal a b)

let () =
  Alcotest.run "datagen"
    [
      ( "footballdb",
        [
          Alcotest.test_case "deterministic" `Quick test_footballdb_deterministic;
          Alcotest.test_case "paper shape" `Quick test_footballdb_shape;
          Alcotest.test_case "clean is consistent" `Quick
            test_footballdb_clean_is_consistent;
          Alcotest.test_case "noise ratio" `Quick test_footballdb_noise_ratio;
          Alcotest.test_case "noise is conflicting" `Quick
            test_footballdb_noise_is_conflicting;
          Alcotest.test_case "debugging quality" `Slow
            test_footballdb_debugging_quality;
          Alcotest.test_case "rules parse" `Quick test_footballdb_rules_parse;
        ] );
      ( "wikidata",
        [
          Alcotest.test_case "deterministic" `Quick test_wikidata_deterministic;
          Alcotest.test_case "paper shape" `Quick test_wikidata_shape;
          Alcotest.test_case "clean is consistent" `Quick
            test_wikidata_clean_is_consistent;
          Alcotest.test_case "conflict rate" `Quick test_wikidata_conflict_rate;
          Alcotest.test_case "conflicts detected" `Slow
            test_wikidata_conflicts_detected;
          Alcotest.test_case "rules parse" `Quick test_wikidata_rules_parse;
        ] );
      ( "names",
        [ Alcotest.test_case "pools" `Quick test_names_pools ] );
    ]
