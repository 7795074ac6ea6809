(* Tests for temporal conjunctive queries. *)

module Q = Tecore.Query

let graph () =
  Kg.Graph.of_list
    [
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Chelsea") (2000, 2004) 0.9;
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Leicester") (2015, 2017) 0.7;
      Kg.Quad.v "CR" "coach" (Kg.Term.iri "Napoli") (2001, 2003) 0.6;
      Kg.Quad.v "CR" "birthDate" (Kg.Term.int 1951) (1951, 2017) 1.0;
      Kg.Quad.v "Kid" "coach" (Kg.Term.iri "Ajax") (2010, 2012) 0.8;
    ]

let run src =
  match Q.run (graph ()) src with
  | Ok answers -> answers
  | Error e -> Alcotest.fail e

let test_single_atom () =
  let answers = run "coach(x, y)@t" in
  Alcotest.(check int) "four coach facts" 4 (List.length answers);
  List.iter
    (fun a ->
      Alcotest.(check int) "one supporting fact" 1 (List.length a.Q.facts))
    answers

let test_constant_selection () =
  let answers = run "coach(CR, y)@t" in
  Alcotest.(check int) "three CR facts" 3 (List.length answers);
  let answers = run "coach(x, Ajax)@t" in
  Alcotest.(check int) "one ajax fact" 1 (List.length answers);
  match (List.hd answers).Q.subst |> fun s -> Logic.Subst.eval_term s (Logic.Lterm.var "x") with
  | Some t -> Alcotest.(check string) "x bound to Kid" "Kid" (Kg.Term.to_string t)
  | None -> Alcotest.fail "x unbound"

let test_overlap_join () =
  let answers =
    run "coach(x, y)@t ^ coach(x, z)@t2 ^ y != z ^ intersects(t, t2)"
  in
  (* Chelsea/Napoli in both orders. *)
  Alcotest.(check int) "one clash, two orders" 2 (List.length answers)

let test_confidence_product () =
  let answers =
    run "coach(x, y)@t ^ coach(x, z)@t2 ^ y != z ^ intersects(t, t2)"
  in
  List.iter
    (fun a ->
      Alcotest.(check bool) "confidence = 0.9 * 0.6" true
        (Float.abs (a.Q.confidence -. 0.54) < 1e-9))
    answers

let test_arithmetic_condition () =
  let answers = run "coach(x, y)@t ^ start(t) >= 2010" in
  Alcotest.(check int) "leicester and ajax" 2 (List.length answers)

let test_interval_constant () =
  let answers = run "coach(x, y)@[2015,2017]" in
  Alcotest.(check int) "exact interval" 1 (List.length answers)

let test_empty_result () =
  Alcotest.(check int) "no zz facts" 0 (List.length (run "zz(x, y)@t"))

let test_parse_error () =
  match Q.run (graph ()) "coach(x, y)@" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad query accepted"

let test_unsafe_condition () =
  match Q.run (graph ()) "coach(x, y)@t ^ value(w) > 3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unsafe query accepted"

let test_no_atoms () =
  match Q.run (graph ()) "start(t) > 3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "atomless query accepted"

(* An answer prints its bindings and confidence, then one line per
   supporting fact in query-atom order. *)
let test_pp_answer () =
  let g = graph () in
  match Q.run g "coach(x, Ajax)@t ^ birthDate(CR, b)@u" with
  | Error e -> Alcotest.fail e
  | Ok [ a ] ->
      Alcotest.(check string) "rendering"
        "{b=1951 x=Kid t=[2010,2012] u=[1951,2017] }  (confidence 0.8)\n\
        \  (Kid, coach, Ajax, [2010,2012]) 0.8\n\
        \  (CR, birthDate, 1951, [1951,2017])"
        (Format.asprintf "%a" (Q.pp_answer g) a)
  | Ok answers -> Alcotest.failf "%d answers" (List.length answers)

let test_namespace_query () =
  let ns = Kg.Namespace.create () in
  let g =
    Kg.Graph.of_list
      [
        Kg.Quad.v "http://example.org/CR" "http://example.org/coach"
          (Kg.Term.iri "http://example.org/Chelsea")
          (2000, 2004) 0.9;
      ]
  in
  match Q.run ~namespace:ns g "ex:coach(x, y)@t" with
  | Ok answers -> Alcotest.(check int) "curie expands" 1 (List.length answers)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "query"
    [
      ( "evaluation",
        [
          Alcotest.test_case "single atom" `Quick test_single_atom;
          Alcotest.test_case "constant selection" `Quick test_constant_selection;
          Alcotest.test_case "overlap join" `Quick test_overlap_join;
          Alcotest.test_case "confidence product" `Quick test_confidence_product;
          Alcotest.test_case "arithmetic condition" `Quick
            test_arithmetic_condition;
          Alcotest.test_case "interval constant" `Quick test_interval_constant;
          Alcotest.test_case "empty result" `Quick test_empty_result;
          Alcotest.test_case "namespace" `Quick test_namespace_query;
          Alcotest.test_case "pp_answer" `Quick test_pp_answer;
        ] );
      ( "errors",
        [
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "unsafe condition" `Quick test_unsafe_condition;
          Alcotest.test_case "no atoms" `Quick test_no_atoms;
        ] );
    ]
