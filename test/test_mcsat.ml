(* Tests for MC-SAT, validated against exact enumeration on tiny
   networks. *)

module Network = Mln.Network
module Mcsat = Mln.Mcsat

let unit_clause atom positive weight = ([ (atom, positive) ], weight, "test")
let binary_clause a b weight = ([ a; b ], weight, "test")

(* Exact marginals by world enumeration: P(x) ∝ exp(Σ w·sat) over worlds
   satisfying all hard clauses. *)
let exact_marginals (network : Network.t) =
  let n = network.num_atoms in
  let marginals = Array.make n 0.0 in
  let z = ref 0.0 in
  for world = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun i -> (world lsr i) land 1 = 1) in
    if Network.hard_violations network x = 0 then begin
      let energy = Network.score network x in
      let p = exp energy in
      z := !z +. p;
      Array.iteri (fun i v -> if v then marginals.(i) <- marginals.(i) +. p) x
    end
  done;
  Array.map (fun m -> m /. !z) marginals

let check_against_exact ?(tol = 0.05) network ~samples =
  let exact = exact_marginals network in
  let approx = Mcsat.run ~seed:3 ~burn_in:200 ~samples network in
  Array.iteri
    (fun i e ->
      Alcotest.(check bool)
        (Printf.sprintf "atom %d: mcsat %.3f ~ exact %.3f" i
           approx.Mcsat.marginals.(i) e)
        true
        (Float.abs (approx.Mcsat.marginals.(i) -. e) < tol))
    exact

let test_soft_only () =
  let network =
    Network.of_clauses ~num_atoms:2
      [
        unit_clause 0 true (Some 1.0);
        unit_clause 1 true (Some 0.5);
        binary_clause (0, false) (1, true) (Some 0.7);
      ]
  in
  check_against_exact network ~samples:4_000

let test_hard_exclusion_exact_zeroes () =
  (* Hard mutual exclusion plus pulls: the joint world (T,T) must never
     be sampled. *)
  let network =
    Network.of_clauses ~num_atoms:2
      [
        unit_clause 0 true (Some 2.0);
        unit_clause 1 true (Some 1.0);
        binary_clause (0, false) (1, false) None;
      ]
  in
  check_against_exact network ~samples:4_000;
  (* Also: in every sample both can never be true; the marginals sum to
     at most 1 + tolerance. *)
  let r = Mcsat.run ~seed:5 ~burn_in:200 ~samples:2_000 network in
  Alcotest.(check bool) "mutually exclusive mass" true
    (r.Mcsat.marginals.(0) +. r.Mcsat.marginals.(1) <= 1.05)

let test_hard_implication_chain () =
  (* Hard chain a -> b -> c with a pulled up: all three marginals ~ the
     same (worlds violating the chain are excluded). *)
  let network =
    Network.of_clauses ~num_atoms:3
      [
        unit_clause 0 true (Some 1.5);
        binary_clause (0, false) (1, true) None;
        binary_clause (1, false) (2, true) None;
      ]
  in
  check_against_exact network ~samples:4_000;
  let r = Mcsat.run ~seed:7 ~burn_in:200 ~samples:2_000 network in
  Alcotest.(check bool) "chain propagates" true
    (r.Mcsat.marginals.(2) >= r.Mcsat.marginals.(0) -. 0.05)

let test_unsatisfiable_hard_rejected () =
  let network =
    Network.of_clauses ~num_atoms:1
      [ unit_clause 0 true None; unit_clause 0 false None ]
  in
  match Mcsat.run ~samples:10 network with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsatisfiable hard clauses accepted"

let test_deterministic () =
  let network =
    Network.of_clauses ~num_atoms:1 [ unit_clause 0 true (Some 1.0) ]
  in
  let a = Mcsat.run ~seed:9 ~samples:500 network in
  let b = Mcsat.run ~seed:9 ~samples:500 network in
  Alcotest.(check bool) "same seed same marginals" true
    (a.Mcsat.marginals = b.Mcsat.marginals)

let test_on_running_example () =
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
  let r = Mcsat.run ~seed:11 ~burn_in:200 ~samples:2_000 network in
  Alcotest.(check bool) "chelsea likelier" true
    (r.Mcsat.marginals.(0) > r.Mcsat.marginals.(1));
  Alcotest.(check bool) "never both (hard)" true
    (r.Mcsat.marginals.(0) +. r.Mcsat.marginals.(1) <= 1.05)

let () =
  Alcotest.run "mcsat"
    [
      ( "marginals",
        [
          Alcotest.test_case "soft only vs exact" `Quick test_soft_only;
          Alcotest.test_case "hard exclusion" `Quick
            test_hard_exclusion_exact_zeroes;
          Alcotest.test_case "hard chain" `Quick test_hard_implication_chain;
          Alcotest.test_case "unsat rejected" `Quick
            test_unsatisfiable_hard_rejected;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "running example" `Quick test_on_running_example;
        ] );
    ]
