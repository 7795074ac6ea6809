(* Tests for Gibbs-sampling marginal inference. *)

module Network = Mln.Network
module Gibbs = Mln.Gibbs

let unit_clause atom positive weight = ([ (atom, positive) ], weight, "test")

let test_single_atom_marginal () =
  (* One soft unit clause (+0) with weight w: P(x) = sigmoid(w). *)
  let w = 1.0 in
  let network =
    Network.of_clauses ~num_atoms:1 [ unit_clause 0 true (Some w) ]
  in
  let r = Gibbs.run ~seed:1 ~burn_in:500 ~samples:20_000 network in
  let expected = 1.0 /. (1.0 +. exp (-.w)) in
  Alcotest.(check bool)
    (Printf.sprintf "marginal %.3f ~ %.3f" r.Gibbs.marginals.(0) expected)
    true
    (Float.abs (r.Gibbs.marginals.(0) -. expected) < 0.02)

let test_opposing_units () =
  (* +x with weight 2, -x with weight 2: marginal 0.5. *)
  let network =
    Network.of_clauses ~num_atoms:1
      [ unit_clause 0 true (Some 2.0); unit_clause 0 false (Some 2.0) ]
  in
  let r = Gibbs.run ~seed:2 ~burn_in:500 ~samples:20_000 network in
  Alcotest.(check bool) "balanced" true
    (Float.abs (r.Gibbs.marginals.(0) -. 0.5) < 0.02)

let test_hard_evidence_near_one () =
  let network =
    Network.of_clauses ~num_atoms:1 [ unit_clause 0 true None ]
  in
  let r = Gibbs.run ~seed:3 ~burn_in:200 ~samples:5_000 network in
  Alcotest.(check bool) "pinned near 1" true (r.Gibbs.marginals.(0) > 0.99)

let test_mutual_exclusion_marginals () =
  (* Evidence pulls both, hard clause forbids both: the chain splits its
     time between the two single-atom worlds according to their weights. *)
  let network =
    Network.of_clauses ~num_atoms:2
      [
        unit_clause 0 true (Some 2.0);
        unit_clause 1 true (Some 1.0);
        ([ (0, false); (1, false) ], None, "clash");
      ]
  in
  let r = Gibbs.run ~seed:4 ~burn_in:1_000 ~samples:30_000 network in
  Alcotest.(check bool) "heavier atom more probable" true
    (r.Gibbs.marginals.(0) > r.Gibbs.marginals.(1));
  Alcotest.(check bool) "both rarely true together" true
    (r.Gibbs.marginals.(0) +. r.Gibbs.marginals.(1) < 1.35)

let test_deterministic_given_seed () =
  let network =
    Network.of_clauses ~num_atoms:1 [ unit_clause 0 true (Some 0.7) ]
  in
  let a = Gibbs.run ~seed:5 ~burn_in:100 ~samples:1_000 network in
  let b = Gibbs.run ~seed:5 ~burn_in:100 ~samples:1_000 network in
  Alcotest.(check bool) "same seed, same marginals" true
    (a.Gibbs.marginals = b.Gibbs.marginals)

let test_map_agreement_on_running_example () =
  (* On the running example the marginals should rank the MAP-kept facts
     above the removed one. *)
  let graph =
    Kg.Graph.of_list
      [
        Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9;
        Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6;
      ]
  in
  let rules =
    match
      Rulelang.Parser.parse_string
        "constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) ."
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "parse"
  in
  let store = Grounder.Atom_store.of_graph graph in
  let ground = Grounder.Ground.run store rules in
  let network = Network.build store ground.Grounder.Ground.instances in
  let init = Network.initial_assignment network store in
  let r = Gibbs.run ~seed:6 ~burn_in:1_000 ~samples:20_000 ~init network in
  Alcotest.(check bool) "chelsea above napoli" true
    (r.Gibbs.marginals.(0) > r.Gibbs.marginals.(1));
  Alcotest.(check bool) "napoli below half" true (r.Gibbs.marginals.(1) < 0.5)

let () =
  Alcotest.run "gibbs"
    [
      ( "marginals",
        [
          Alcotest.test_case "single atom" `Quick test_single_atom_marginal;
          Alcotest.test_case "opposing units" `Quick test_opposing_units;
          Alcotest.test_case "hard evidence" `Quick test_hard_evidence_near_one;
          Alcotest.test_case "mutual exclusion" `Quick
            test_mutual_exclusion_marginals;
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
          Alcotest.test_case "running example" `Quick
            test_map_agreement_on_running_example;
        ] );
    ]
