(* Edge cases and failure injection across the full engine stack. *)

let parse_rules src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)

let c2 =
  "constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) ."

let test_empty_graph () =
  let g = Kg.Graph.create () in
  let result = Tecore.Engine.resolve g (parse_rules c2) in
  Alcotest.(check int) "nothing kept" 0 result.Tecore.Engine.resolution.Tecore.Conflict.kept;
  Alcotest.(check int) "nothing removed" 0
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.removed)

let test_no_rules () =
  let g =
    Kg.Graph.of_list
      [ Kg.Quad.v "a" "p" (Kg.Term.iri "b") (1, 2) 0.9 ]
  in
  let result = Tecore.Engine.resolve g [] in
  Alcotest.(check int) "everything kept" 1
    result.Tecore.Engine.resolution.Tecore.Conflict.kept

let test_unsatisfiable_hard_core () =
  (* Two conflicting confidence-1.0 facts: no consistent world exists;
     both engines must report instead of looping or crashing. *)
  let g =
    Kg.Graph.of_list
      [
        Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2005) 1.0;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "B") (2003, 2007) 1.0;
      ]
  in
  let mln =
    Tecore.Engine.resolve ~engine:(Tecore.Engine.Mln Mln.Map_inference.default_options)
      g (parse_rules c2)
  in
  Alcotest.(check bool) "mln reports violations" true
    (mln.Tecore.Engine.stats.Tecore.Engine.hard_violations > 0);
  let psl =
    Tecore.Engine.resolve ~engine:(Tecore.Engine.Psl Psl.Npsl.default_options)
      g (parse_rules c2)
  in
  Alcotest.(check bool) "psl reports unrepaired" true
    (psl.Tecore.Engine.stats.Tecore.Engine.hard_violations > 0)

let test_soft_constraint_can_lose () =
  (* A weak soft constraint must NOT remove two strong facts. *)
  let g =
    Kg.Graph.of_list
      [
        Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2005) 0.95;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "B") (2003, 2007) 0.95;
      ]
  in
  let weak =
    parse_rules
      "constraint weak 0.1: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) ."
  in
  let result = Tecore.Engine.resolve g weak in
  Alcotest.(check int) "both kept" 2
    result.Tecore.Engine.resolution.Tecore.Conflict.kept;
  (* ... and a strong soft constraint wins over a weak fact. *)
  let strong =
    parse_rules
      "constraint strong 8.0: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) ."
  in
  let g2 =
    Kg.Graph.of_list
      [
        Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2005) 0.95;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "B") (2003, 2007) 0.55;
      ]
  in
  let result = Tecore.Engine.resolve g2 strong in
  Alcotest.(check int) "weak fact removed" 1
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.removed)

let test_duplicate_statements_conflict () =
  (* Duplicate statements (same triple and interval) never clash with
     each other under y != z constraints. *)
  let q = Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2005) 0.8 in
  let g = Kg.Graph.of_list [ q; q ] in
  let result = Tecore.Engine.resolve g (parse_rules c2) in
  Alcotest.(check int) "no conflicts" 0
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.conflicting)

let test_duplicate_facts_removed_together () =
  (* Duplicate statements intern to one atom: when MAP drops the atom,
     every duplicate fact must leave the consistent graph. *)
  let g =
    Kg.Graph.of_list
      [
        Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2005) 0.9;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "B") (2003, 2007) 0.6;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "B") (2003, 2007) 0.4;
      ]
  in
  let result = Tecore.Engine.resolve g (parse_rules c2) in
  Alcotest.(check int) "both duplicates removed" 2
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.removed);
  Alcotest.(check int) "consistent keeps only A" 1
    (Kg.Graph.size result.Tecore.Engine.resolution.Tecore.Conflict.consistent);
  (* And the repair strategies see them as one unit. *)
  let repair = Tecore.Repair.greedy g (parse_rules c2) in
  Alcotest.(check int) "greedy removes both duplicates" 2
    (List.length repair.Tecore.Repair.removed)

let test_reflexive_join_no_self_clash () =
  (* A fact never clashes with itself even under a condition-free pairing
     constraint: the tautology filter must drop (-a v +a)-style clauses,
     and y != z guards the rest. *)
  let g =
    Kg.Graph.of_list [ Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2005) 0.8 ]
  in
  let result = Tecore.Engine.resolve g (parse_rules c2) in
  Alcotest.(check int) "kept" 1 result.Tecore.Engine.resolution.Tecore.Conflict.kept

let test_single_point_intervals () =
  let g =
    Kg.Graph.of_list
      [
        Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2000) 0.9;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "B") (2000, 2000) 0.6;
      ]
  in
  let result = Tecore.Engine.resolve g (parse_rules c2) in
  Alcotest.(check int) "point clash resolved" 1
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.removed)

let test_adjacent_intervals_no_clash () =
  (* [2000,2004] meets [2005,2007]: disjoint in Allen terms, no clash. *)
  let g =
    Kg.Graph.of_list
      [
        Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2004) 0.9;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "B") (2005, 2007) 0.6;
      ]
  in
  let result = Tecore.Engine.resolve g (parse_rules c2) in
  Alcotest.(check int) "no removal" 0
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.removed)

let test_negative_time_points () =
  (* BCE-style years: the discrete domain is any int. *)
  let g =
    Kg.Graph.of_list
      [
        Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (-50, -40) 0.9;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "B") (-45, -30) 0.6;
      ]
  in
  let result = Tecore.Engine.resolve g (parse_rules c2) in
  Alcotest.(check int) "negative-era clash resolved" 1
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.removed)

let test_rule_chain_depth () =
  (* A chain p1 -> p2 -> ... -> p6, declared in order, closes in one
     closure pass and derives every intermediate fact. *)
  let rules =
    parse_rules
      {|rule r1 2.0: p1(x, y)@t => p2(x, y)@t .
rule r2 2.0: p2(x, y)@t => p3(x, y)@t .
rule r3 2.0: p3(x, y)@t => p4(x, y)@t .
rule r4 2.0: p4(x, y)@t => p5(x, y)@t .
rule r5 2.0: p5(x, y)@t => p6(x, y)@t .|}
  in
  let g = Kg.Graph.of_list [ Kg.Quad.v "a" "p1" (Kg.Term.iri "b") (1, 2) 0.9 ] in
  let result = Tecore.Engine.resolve g rules in
  Alcotest.(check int) "five derived" 5
    (List.length result.Tecore.Engine.resolution.Tecore.Conflict.derived);
  (* Chained derivations keep high confidence. *)
  List.iter
    (fun (d : Tecore.Conflict.derived_fact) ->
      Alcotest.(check bool) "confident" true (d.Tecore.Conflict.confidence > 0.8))
    result.Tecore.Engine.resolution.Tecore.Conflict.derived

let test_interval_computation_chain () =
  (* Head intervals computed from computed intervals. *)
  let rules =
    parse_rules
      {|rule r1 2.0: p(x, y)@t ^ q(y, z)@t2 ^ intersects(t, t2) => pq(x, z)@(t * t2) .
rule r2 2.0: pq(x, z)@t ^ r(z, w)@t2 ^ intersects(t, t2) => pqr(x, w)@(t * t2) .|}
  in
  let g =
    Kg.Graph.of_list
      [
        Kg.Quad.v "a" "p" (Kg.Term.iri "b") (1, 10) 0.9;
        Kg.Quad.v "b" "q" (Kg.Term.iri "c") (5, 15) 0.9;
        Kg.Quad.v "c" "r" (Kg.Term.iri "d") (8, 20) 0.9;
      ]
  in
  let result = Tecore.Engine.resolve g rules in
  let resolution = result.Tecore.Engine.resolution in
  let derived =
    List.filter_map
      (Tecore.Conflict.derived_quad resolution)
      resolution.Tecore.Conflict.derived
  in
  let pqr =
    List.find_opt
      (fun q -> Kg.Term.to_string q.Kg.Quad.predicate = "pqr")
      derived
  in
  match pqr with
  | Some q ->
      Alcotest.(check int) "lo = max starts" 8 (Kg.Interval.lo q.Kg.Quad.time);
      Alcotest.(check int) "hi = min ends" 10 (Kg.Interval.hi q.Kg.Quad.time)
  | None -> Alcotest.fail "pqr not derived"

let test_large_weights_and_tiny_confidence () =
  let g =
    Kg.Graph.of_list
      [
        Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2005) 0.9999999;
        Kg.Quad.v "x" "coach" (Kg.Term.iri "B") (2003, 2007) 0.0000001;
      ]
  in
  let result = Tecore.Engine.resolve g (parse_rules c2) in
  let removed = result.Tecore.Engine.resolution.Tecore.Conflict.removed in
  Alcotest.(check int) "one removed" 1 (List.length removed);
  Alcotest.(check string) "the near-zero one" "B"
    (Kg.Term.to_string (snd (List.hd removed)).Kg.Quad.object_)

let test_all_engines_agree_on_edge_cases () =
  let graphs =
    [
      Kg.Graph.of_list
        [
          Kg.Quad.v "x" "coach" (Kg.Term.iri "A") (2000, 2005) 0.9;
          Kg.Quad.v "x" "coach" (Kg.Term.iri "B") (2003, 2007) 0.6;
          Kg.Quad.v "x" "coach" (Kg.Term.iri "C") (2006, 2009) 0.7;
        ];
      Kg.Graph.of_list
        [ Kg.Quad.v "solo" "coach" (Kg.Term.iri "A") (1, 1) 0.51 ];
    ]
  in
  List.iter
    (fun g ->
      let removed engine =
        (Tecore.Engine.resolve ~engine g (parse_rules c2))
          .Tecore.Engine.resolution.Tecore.Conflict.removed
        |> List.map fst |> List.sort Int.compare
      in
      let mln = removed (Tecore.Engine.Mln Mln.Map_inference.default_options) in
      let psl = removed (Tecore.Engine.Psl Psl.Npsl.default_options) in
      Alcotest.(check (list int)) "engines agree" mln psl)
    graphs

let () =
  Alcotest.run "engine-edge"
    [
      ( "degenerate inputs",
        [
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "no rules" `Quick test_no_rules;
          Alcotest.test_case "duplicate statements" `Quick
            test_duplicate_statements_conflict;
          Alcotest.test_case "duplicates removed together" `Quick
            test_duplicate_facts_removed_together;
          Alcotest.test_case "reflexive join" `Quick
            test_reflexive_join_no_self_clash;
          Alcotest.test_case "point intervals" `Quick test_single_point_intervals;
          Alcotest.test_case "adjacent intervals" `Quick
            test_adjacent_intervals_no_clash;
          Alcotest.test_case "negative time" `Quick test_negative_time_points;
        ] );
      ( "stress semantics",
        [
          Alcotest.test_case "unsatisfiable hard core" `Quick
            test_unsatisfiable_hard_core;
          Alcotest.test_case "soft constraints lose and win" `Quick
            test_soft_constraint_can_lose;
          Alcotest.test_case "rule chain depth" `Quick test_rule_chain_depth;
          Alcotest.test_case "interval computation chain" `Quick
            test_interval_computation_chain;
          Alcotest.test_case "extreme confidences" `Quick
            test_large_weights_and_tiny_confidence;
          Alcotest.test_case "engines agree" `Quick
            test_all_engines_agree_on_edge_cases;
        ] );
    ]
