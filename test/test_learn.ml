(* Tests for pseudo-likelihood weight learning. *)

module Learn = Mln.Learn
module Store = Grounder.Atom_store

let parse_rules src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)

(* A corpus where rule "good" (playsFor -> worksFor) is always confirmed
   (the worksFor facts are present) and rule "bad" (playsFor -> captainOf)
   is never confirmed. *)
let corpus n =
  let g = Kg.Graph.create () in
  for i = 0 to n - 1 do
    let who = Printf.sprintf "P%d" i in
    ignore
      (Kg.Graph.add g
         (Kg.Quad.v who "playsFor" (Kg.Term.iri "Club") (2000, 2005) 0.9));
    ignore
      (Kg.Graph.add g
         (Kg.Quad.v who "worksFor" (Kg.Term.iri "Club") (2000, 2005) 0.9))
  done;
  g

let rules () =
  parse_rules
    {|rule good 1.0: playsFor(x, y)@t => worksFor(x, y)@t .
rule bad 1.0: playsFor(x, y)@t => captainOf(x, y)@t .|}

let learn_on graph rules =
  let store = Store.of_graph graph in
  let ground = Grounder.Ground.run store rules in
  (store, ground, Learn.learn store ground.Grounder.Ground.instances rules)

let test_confirmed_rule_beats_unconfirmed () =
  let _, _, result = learn_on (corpus 30) (rules ()) in
  let w name = List.assoc name result.Learn.weights in
  Alcotest.(check bool)
    (Printf.sprintf "good %.2f > bad %.2f" (w "good") (w "bad"))
    true
    (w "good" > w "bad")

let test_pll_increases () =
  let _, _, result = learn_on (corpus 30) (rules ()) in
  match result.Learn.pll_trace with
  | first :: _ ->
      let last = List.nth result.Learn.pll_trace
          (List.length result.Learn.pll_trace - 1)
      in
      Alcotest.(check bool)
        (Printf.sprintf "pll %.2f -> %.2f" first last)
        true (last >= first)
  | [] -> Alcotest.fail "empty trace"

let test_hard_rules_untouched () =
  let rules =
    parse_rules
      {|rule soft 1.0: playsFor(x, y)@t => worksFor(x, y)@t .
constraint hard: playsFor(x, y)@t ^ playsFor(x, z)@t2 ^ y != z => disjoint(t, t2) .|}
  in
  let _, _, result = learn_on (corpus 10) rules in
  Alcotest.(check int) "only soft rules learned" 1
    (List.length result.Learn.weights);
  Alcotest.(check bool) "soft entry present" true
    (List.mem_assoc "soft" result.Learn.weights)

let test_apply () =
  let rs = rules () in
  let _, _, result = learn_on (corpus 20) rs in
  let updated = Learn.apply result rs in
  List.iter2
    (fun (old_r : Logic.Rule.t) (new_r : Logic.Rule.t) ->
      Alcotest.(check string) "name preserved" old_r.name new_r.name;
      match new_r.weight with
      | Some w ->
          Alcotest.(check bool) "weight is the learned one" true
            (Some w = List.assoc_opt new_r.name result.Learn.weights)
      | None -> Alcotest.fail "soft rule lost its weight")
    rs updated

let test_weights_bounded () =
  let options = { Learn.default_options with Learn.iterations = 500 } in
  let store = Store.of_graph (corpus 30) in
  let ground = Grounder.Ground.run store (rules ()) in
  let result =
    Learn.learn ~options store ground.Grounder.Ground.instances (rules ())
  in
  List.iter
    (fun (_, w) ->
      Alcotest.(check bool) "within bounds" true
        (w >= options.Learn.min_weight && w <= options.Learn.max_weight))
    result.Learn.weights

let test_violated_constraint_weight_drops () =
  (* A soft constraint violated by half the data should end with a lower
     weight than one the data always satisfies. *)
  let g = Kg.Graph.create () in
  for i = 0 to 19 do
    let who = Printf.sprintf "P%d" i in
    ignore
      (Kg.Graph.add g (Kg.Quad.v who "p" (Kg.Term.iri "A") (2000, 2005) 0.9));
    (* Half the subjects also have an overlapping second object. *)
    if i mod 2 = 0 then
      ignore
        (Kg.Graph.add g (Kg.Quad.v who "p" (Kg.Term.iri "B") (2003, 2008) 0.9));
    ignore
      (Kg.Graph.add g (Kg.Quad.v who "q" (Kg.Term.iri "C") (2010, 2012) 0.9))
  done;
  let rules =
    parse_rules
      {|constraint often_violated 1.0: p(x, y)@t ^ p(x, z)@t2 ^ y != z => disjoint(t, t2) .
constraint never_violated 1.0: q(x, y)@t ^ q(x, z)@t2 ^ y != z => disjoint(t, t2) .|}
  in
  let _, _, result = learn_on g rules in
  let w name = List.assoc name result.Learn.weights in
  Alcotest.(check bool)
    (Printf.sprintf "violated %.3f < intact %.3f" (w "often_violated")
       (w "never_violated"))
    true
    (w "often_violated" < w "never_violated")

let test_learned_weights_usable_by_engine () =
  let rs = rules () in
  let _, _, result = learn_on (corpus 20) rs in
  let updated = Learn.apply result rs in
  (* Resolution with learned weights still derives worksFor facts. *)
  let g =
    Kg.Graph.of_list
      [ Kg.Quad.v "New" "playsFor" (Kg.Term.iri "Club") (2010, 2012) 0.9 ]
  in
  let out = Tecore.Engine.resolve g updated in
  Alcotest.(check bool) "derives with learned weight" true
    (List.exists
       (fun (d : Tecore.Conflict.derived_fact) ->
         (Tecore.Conflict.derived_atom out.Tecore.Engine.resolution d)
           .Logic.Atom.Ground.predicate = "worksFor")
       out.Tecore.Engine.resolution.Tecore.Conflict.derived)

let () =
  Alcotest.run "learn"
    [
      ( "pseudo-likelihood",
        [
          Alcotest.test_case "confirmed beats unconfirmed" `Quick
            test_confirmed_rule_beats_unconfirmed;
          Alcotest.test_case "pll increases" `Quick test_pll_increases;
          Alcotest.test_case "hard rules untouched" `Quick
            test_hard_rules_untouched;
          Alcotest.test_case "apply" `Quick test_apply;
          Alcotest.test_case "weights bounded" `Quick test_weights_bounded;
          Alcotest.test_case "violated constraint drops" `Quick
            test_violated_constraint_weight_drops;
          Alcotest.test_case "usable by engine" `Quick
            test_learned_weights_usable_by_engine;
        ] );
    ]
