(* Tests for RDF terms and uncertain temporal facts. *)

module T = Kg.Term
module Q = Kg.Quad
module I = Kg.Interval

let term_testable = Alcotest.testable T.pp T.equal

let test_term_constructors () =
  Alcotest.check term_testable "iri" (T.Iri "a") (T.iri "a");
  Alcotest.check term_testable "str" (T.Str "a") (T.str "a");
  Alcotest.check term_testable "int" (T.Int 3) (T.int 3);
  Alcotest.check term_testable "float" (T.Flt 2.5) (T.float 2.5)

let test_term_equal_across_kinds () =
  Alcotest.(check bool) "iri vs str" false (T.equal (T.iri "a") (T.str "a"));
  Alcotest.(check bool) "int vs float" false (T.equal (T.int 1) (T.float 1.0))

let test_term_is_literal () =
  Alcotest.(check bool) "iri" false (T.is_literal (T.iri "a"));
  Alcotest.(check bool) "str" true (T.is_literal (T.str "a"));
  Alcotest.(check bool) "int" true (T.is_literal (T.int 3));
  Alcotest.(check bool) "float" true (T.is_literal (T.float 2.5));
  Alcotest.(check bool) "year-like iri" false (T.is_literal (T.iri "2004"))

let test_term_compare_total () =
  let terms = [ T.iri "b"; T.str "a"; T.int 5; T.float 1.5; T.iri "a" ] in
  let sorted = List.sort T.compare terms in
  Alcotest.(check int) "sorted length" 5 (List.length sorted);
  (* compare is a total order: sorting twice gives the same list. *)
  Alcotest.(check bool) "stable" true (List.sort T.compare sorted = sorted)

let test_term_as_int () =
  Alcotest.(check (option int)) "int" (Some 5) (T.as_int (T.int 5));
  Alcotest.(check (option int)) "year string" (Some 1951) (T.as_int (T.str "1951"));
  Alcotest.(check (option int)) "year iri" (Some 1951) (T.as_int (T.iri "1951"));
  Alcotest.(check (option int)) "integral float" (Some 2) (T.as_int (T.float 2.0));
  Alcotest.(check (option int)) "fractional" None (T.as_int (T.float 2.5));
  Alcotest.(check (option int)) "word" None (T.as_int (T.iri "Chelsea"))

let test_term_of_string () =
  Alcotest.check term_testable "int" (T.int 42) (T.of_string "42");
  Alcotest.check term_testable "float" (T.float 1.5) (T.of_string "1.5");
  Alcotest.check term_testable "quoted" (T.str "hi there") (T.of_string "\"hi there\"");
  Alcotest.check term_testable "iri" (T.iri "ex:CR") (T.of_string "ex:CR")

let test_term_hash_consistent () =
  Alcotest.(check bool) "equal terms equal hash" true
    (T.hash (T.iri "x") = T.hash (T.iri "x"))

let test_quad_make () =
  let q = Q.v "CR" "coach" (T.iri "Chelsea") (2000, 2004) 0.9 in
  Alcotest.(check bool) "confidence" true (q.Q.confidence = 0.9);
  Alcotest.(check bool) "not certain" false (Q.is_certain q);
  Alcotest.check term_testable "subject" (T.iri "CR") q.Q.subject;
  Alcotest.check term_testable "predicate" (T.iri "coach") q.Q.predicate;
  Alcotest.check term_testable "object" (T.iri "Chelsea") q.Q.object_

let test_quad_invalid_confidence () =
  let mk c = Q.v "a" "p" (T.iri "b") (1, 2) c in
  (match mk 0.0 with
  | exception Q.Invalid _ -> ()
  | _ -> Alcotest.fail "confidence 0 must be rejected");
  (match mk 1.5 with
  | exception Q.Invalid _ -> ()
  | _ -> Alcotest.fail "confidence 1.5 must be rejected");
  match mk (-0.1) with
  | exception Q.Invalid _ -> ()
  | _ -> Alcotest.fail "negative confidence must be rejected"

let test_quad_literal_predicate () =
  match
    Q.make ~subject:(T.iri "a") ~predicate:(T.int 5) ~object_:(T.iri "b")
      (I.make 1 2)
  with
  | exception Q.Invalid _ -> ()
  | _ -> Alcotest.fail "literal predicate must be rejected"

let test_quad_weight () =
  let w p = Q.weight (Q.v "a" "p" (T.iri "b") (1, 2) p) in
  Alcotest.(check bool) "0.9 positive" true (w 0.9 > 0.0);
  Alcotest.(check bool) "0.5 zero" true (Float.abs (w 0.5) < 1e-9);
  Alcotest.(check bool) "0.2 negative" true (w 0.2 < 0.0);
  Alcotest.(check bool) "1.0 capped" true (w 1.0 = Q.max_weight);
  Alcotest.(check bool) "monotone" true (w 0.9 > w 0.7 && w 0.7 > w 0.6)

let test_quad_same_statement () =
  let a = Q.v "s" "p" (T.iri "o") (1, 5) 0.9 in
  let b = Q.v "s" "p" (T.iri "o") (1, 5) 0.4 in
  let c = Q.v "s" "p" (T.iri "o") (1, 6) 0.9 in
  Alcotest.(check bool) "same modulo confidence" true (Q.same_statement a b);
  Alcotest.(check bool) "not equal" false (a = b);
  Alcotest.(check bool) "different interval" false (Q.same_statement a c)

let test_quad_certain_default () =
  let q =
    Q.make ~subject:(T.iri "a") ~predicate:(T.iri "p") ~object_:(T.iri "b")
      (I.make 1 2)
  in
  Alcotest.(check bool) "default confidence 1.0" true (Q.is_certain q)

let test_quad_pp () =
  let q = Q.v "CR" "coach" (T.iri "Chelsea") (2000, 2004) 0.9 in
  Alcotest.(check string) "paper notation"
    "(CR, coach, Chelsea, [2000,2004]) 0.9" (Q.to_string q);
  let certain = Q.v "CR" "birthDate" (T.int 1951) (1951, 2017) 1.0 in
  Alcotest.(check string) "certain omits confidence"
    "(CR, birthDate, 1951, [1951,2017])" (Q.to_string certain)

let test_quad_compare_total () =
  let quads =
    [
      Q.v "b" "p" (T.iri "o") (1, 2) 0.5;
      Q.v "a" "p" (T.iri "o") (1, 2) 0.5;
      Q.v "a" "p" (T.iri "o") (1, 2) 0.9;
      Q.v "a" "o" (T.iri "o") (1, 2) 0.5;
    ]
  in
  let sorted = List.sort Q.compare quads in
  Alcotest.(check bool) "self compare 0" true
    (List.for_all (fun q -> Q.compare q q = 0) quads);
  Alcotest.(check bool) "sorted idempotent" true
    (List.sort Q.compare sorted = sorted)

(* [to_string] renders by constructor; it must stay byte-identical to
   the formatter-based [pp], including escapes and special floats. *)
let qcheck_to_string_matches_pp =
  let gen =
    QCheck.Gen.(
      oneof
        [
          map T.iri (string_size ~gen:printable (int_range 0 8));
          map T.str (string_size ~gen:char (int_range 0 8));
          map T.str (oneofl [ "a\"b"; "tab\tnl\n"; "\\"; "\x01\xff" ]);
          map T.int (oneof [ int; int_range (-50) 50; oneofl [ min_int; max_int ] ]);
          map T.float
            (oneof
               [
                 float;
                 oneofl
                   [ nan; infinity; neg_infinity; -0.; 0.; 1e-300; 1e21; -2.5 ];
               ]);
        ])
  in
  QCheck.Test.make ~name:"to_string = asprintf pp" ~count:2000
    (QCheck.make ~print:(Format.asprintf "%a" T.pp) gen)
    (fun t -> String.equal (T.to_string t) (Format.asprintf "%a" T.pp t))

let () =
  Alcotest.run "term-quad"
    [
      ( "term",
        [
          Alcotest.test_case "constructors" `Quick test_term_constructors;
          Alcotest.test_case "equality across kinds" `Quick
            test_term_equal_across_kinds;
          Alcotest.test_case "total order" `Quick test_term_compare_total;
          Alcotest.test_case "as_int" `Quick test_term_as_int;
          Alcotest.test_case "is_literal" `Quick test_term_is_literal;
          Alcotest.test_case "of_string" `Quick test_term_of_string;
          Alcotest.test_case "hash" `Quick test_term_hash_consistent;
          QCheck_alcotest.to_alcotest qcheck_to_string_matches_pp;
        ] );
      ( "quad",
        [
          Alcotest.test_case "make" `Quick test_quad_make;
          Alcotest.test_case "invalid confidence" `Quick
            test_quad_invalid_confidence;
          Alcotest.test_case "literal predicate" `Quick
            test_quad_literal_predicate;
          Alcotest.test_case "weight" `Quick test_quad_weight;
          Alcotest.test_case "same_statement" `Quick test_quad_same_statement;
          Alcotest.test_case "certain default" `Quick test_quad_certain_default;
          Alcotest.test_case "pp" `Quick test_quad_pp;
          Alcotest.test_case "compare total" `Quick test_quad_compare_total;
        ] );
    ]
