(* Tests for the rule/constraint language: lexer, parser, printer. *)

open Logic

let parse_ok src =
  match Rulelang.Parser.parse_string src with
  | Ok rules -> rules
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)

let parse_one src =
  match parse_ok src with
  | [ r ] -> r
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 rule, got %d" (List.length rs))

let parse_err src =
  match Rulelang.Parser.parse_string src with
  | Ok _ -> Alcotest.fail ("should not parse: " ^ src)
  | Error e -> e

let test_lexer_tokens () =
  match Rulelang.Lexer.tokenize "foo(x, y)@t => bar [1,5] 2.5 != <= met-by ex:p" with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Lexer.pp_error e)
  | Ok tokens ->
      let toks = List.map fst tokens in
      let expect =
        Rulelang.Token.
          [
            Ident "foo"; Lparen; Ident "x"; Comma; Ident "y"; Rparen; At;
            Ident "t"; Arrow; Ident "bar"; Interval (1, 5); Number 2.5; Neq;
            Le; Ident "met-by"; Ident "ex:p"; Eof;
          ]
      in
      Alcotest.(check int) "token count" (List.length expect) (List.length toks);
      List.iter2
        (fun a b ->
          Alcotest.(check bool)
            (Format.asprintf "token %a = %a" Rulelang.Token.pp a
               Rulelang.Token.pp b)
            true (Rulelang.Token.equal a b))
        expect toks

let test_lexer_comments () =
  match Rulelang.Lexer.tokenize "# hash comment\nfoo // slash comment\nbar" with
  | Error _ -> Alcotest.fail "lex failed"
  | Ok tokens ->
      Alcotest.(check int) "two idents + eof" 3 (List.length tokens)

let test_lexer_iri_vs_lt () =
  match Rulelang.Lexer.tokenize "<http://x/y> x < 3 y <= 4" with
  | Error _ -> Alcotest.fail "lex failed"
  | Ok tokens ->
      (match List.map fst tokens with
      | Rulelang.Token.(
          [ Ident "http://x/y"; Ident "x"; Lt; Number 3.0; Ident "y"; Le;
            Number 4.0; Eof ]) ->
          ()
      | _ -> Alcotest.fail "unexpected tokens")

let test_lexer_errors () =
  (match Rulelang.Lexer.tokenize "\"unterminated" with
  | Error e -> Alcotest.(check int) "line" 1 e.Rulelang.Lexer.line
  | Ok _ -> Alcotest.fail "unterminated string lexed");
  match Rulelang.Lexer.tokenize "a\nb $" with
  | Error e -> Alcotest.(check int) "line 2" 2 e.Rulelang.Lexer.line
  | Ok _ -> Alcotest.fail "bad char lexed"

let test_parse_inference_rule () =
  let r = parse_one "rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t ." in
  Alcotest.(check string) "name" "f1" r.Rule.name;
  Alcotest.(check bool) "weight" true (r.Rule.weight = Some 2.5);
  Alcotest.(check bool) "inference" true (Rule.is_inference r);
  Alcotest.(check int) "body size" 1 (List.length r.Rule.body)

let test_parse_constraint_hard () =
  let r =
    parse_one
      "constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) ."
  in
  Alcotest.(check bool) "hard" true (Rule.is_hard r);
  Alcotest.(check int) "two body atoms" 2 (List.length r.Rule.body);
  Alcotest.(check int) "one condition" 1 (List.length r.Rule.conditions);
  match r.Rule.head with
  | Rule.Require (Cond.Allen (set, _, _)) ->
      Alcotest.(check bool) "disjoint set" true
        (Kg.Allen.Set.equal set Kg.Allen.Set.disjoint)
  | _ -> Alcotest.fail "expected an Allen head"

let test_parse_soft_constraint () =
  let r = parse_one "constraint w 0.8: p(x, y)@t => start(t) > 5 ." in
  Alcotest.(check bool) "soft" true (r.Rule.weight = Some 0.8)

let test_parse_equality_head () =
  let r =
    parse_one
      "constraint c3: bornIn(x, y)@t ^ bornIn(x, z)@t2 ^ intersects(t, t2) => y = z ."
  in
  match r.Rule.head with
  | Rule.Require (Cond.Eq (Lterm.Var "y", Lterm.Var "z")) -> ()
  | _ -> Alcotest.fail "expected equality head"

let test_parse_bottom_head () =
  let r = parse_one "constraint d: coach(x, x)@t => false ." in
  Alcotest.(check bool) "bottom" true (r.Rule.head = Rule.Bottom)

let test_parse_computed_interval () =
  let r =
    parse_one
      "rule f2 1.6: worksFor(x, y)@t ^ locatedIn(y, z)@t2 ^ intersects(t, t2) => livesIn(x, z)@(t * t2) ."
  in
  match r.Rule.head with
  | Rule.Infer { time = Some (Lterm.Tinter (Lterm.Tvar "t", Lterm.Tvar "t2")); _ } ->
      ()
  | _ -> Alcotest.fail "expected computed intersection time"

let test_parse_hull () =
  let r = parse_one "rule h 1: p(x, y)@t ^ q(x, y)@t2 => r(x, y)@(t + t2) ." in
  match r.Rule.head with
  | Rule.Infer { time = Some (Lterm.Thull _); _ } -> ()
  | _ -> Alcotest.fail "expected hull time"

let test_temporal_arith_resolution () =
  (* Bare temporal variables in arithmetic become interval starts. *)
  let r =
    parse_one
      "rule f3 2.9: playsFor(x, y)@t ^ birthDate(x, z)@t2 ^ t - t2 < 20 => Teen(x) ."
  in
  match r.Rule.conditions with
  | [ Cond.Cmp (Cond.Lt,
        Cond.Sub (Cond.Start_of (Lterm.Tvar "t"), Cond.Start_of (Lterm.Tvar "t2")),
        Cond.Num 20) ] ->
      ()
  | _ -> Alcotest.fail "temporal arithmetic not resolved"

let test_value_stays_object () =
  (* A bare object variable in arithmetic keeps Value_of. *)
  let r = parse_one "constraint v: p(x, z)@t => z > 5 ." in
  match r.Rule.head with
  | Rule.Require (Cond.Cmp (Cond.Gt, Cond.Value_of (Lterm.Var "z"), Cond.Num 5)) ->
      ()
  | _ -> Alcotest.fail "object variable mangled"

let test_quad_sugar () =
  let r = parse_one "rule q 1.2: quad(x, playsFor, y, t) => quad(x, worksFor, y, t) ." in
  (match r.Rule.body with
  | [ { Atom.predicate = "playsFor"; args = [ Lterm.Var "x"; Lterm.Var "y" ];
        time = Some (Lterm.Tvar "t") } ] ->
      ()
  | _ -> Alcotest.fail "quad sugar body");
  match r.Rule.head with
  | Rule.Infer { Atom.predicate = "worksFor"; _ } -> ()
  | _ -> Alcotest.fail "quad sugar head"

let test_constants_vs_variables () =
  let r = parse_one "rule k 1: coach(x, Chelsea)@[2000,2004] => Top(x) ." in
  match r.Rule.body with
  | [ { Atom.args = [ Lterm.Var "x"; Lterm.Const c ];
        time = Some (Lterm.Tconst i); _ } ] ->
      Alcotest.(check string) "constant" "Chelsea" (Kg.Term.to_string c);
      Alcotest.(check int) "interval lo" 2000 (Kg.Interval.lo i)
  | _ -> Alcotest.fail "constant handling"

let test_numeric_and_string_constants () =
  let r = parse_one {|rule s 1: born(x, 1951)@t ^ tag(x, "noisy")@t => Flag(x) .|} in
  match (List.nth r.Rule.body 0).Atom.args with
  | [ _; Lterm.Const (Kg.Term.Int 1951) ] -> ()
  | _ -> Alcotest.fail "int constant"

let test_namespace_expansion () =
  let ns = Kg.Namespace.create () in
  match
    Rulelang.Parser.parse_string ~namespace:ns
      "rule n 1: ex:p(x, ex:K)@t => ex:q(x, ex:K)@t ."
  with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)
  | Ok [ r ] -> (
      match r.Rule.body with
      | [ { Atom.predicate; args = [ _; Lterm.Const c ]; _ } ] ->
          Alcotest.(check string) "predicate expanded"
            "http://example.org/p" predicate;
          Alcotest.(check string) "constant expanded" "http://example.org/K"
            (Kg.Term.to_string c)
      | _ -> Alcotest.fail "body shape")
  | Ok _ -> Alcotest.fail "one rule expected"

let test_multiple_statements () =
  let rules =
    parse_ok
      {|rule a 1: p(x, y)@t => q(x, y)@t .
constraint b: p(x, y)@t ^ p(x, z)@t2 ^ y != z => disjoint(t, t2) .
rule c 2: q(x, y)@t => r(x, y)@t .|}
  in
  Alcotest.(check (list string)) "names" [ "a"; "b"; "c" ]
    (List.map (fun r -> r.Rule.name) rules)

let test_parse_errors () =
  ignore (parse_err "rule: p(x)@t => q(x)@t .");
  (* missing name *)
  ignore (parse_err "rule r 1: => q(x)@t .");
  (* empty body *)
  ignore (parse_err "rule r 1: p(x)@t => .");
  (* missing head *)
  ignore (parse_err "rule r 1: p(x)@t q(x)@t .");
  (* missing arrow *)
  ignore (parse_err "rule r -2: p(x)@t => q(x)@t .");
  (* negative weight *)
  ignore (parse_err "constraint c: p(x)@t => q(x)@t .");
  (* constraint with atom head *)
  ignore (parse_err "rule r 1: p(x)@t => q(x, w)@t .");
  (* unsafe head *)
  ignore (parse_err "rule r 1: false => q(x)@t .")
  (* false in body *)

let test_unsafe_reported_with_name () =
  let e = parse_err "rule u 1: p(x, y)@t => q(x, w)@t ." in
  Alcotest.(check bool) "mentions rule" true
    (let m = e.Rulelang.Parser.message in
     let has needle =
       let n = String.length needle and h = String.length m in
       let rec loop i = i + n <= h && (String.sub m i n = needle || loop (i + 1)) in
       loop 0
     in
     has "u" && has "?w")

let paper_program =
  {|rule f1 2.5: playsFor(x, y)@t => worksFor(x, y)@t .
rule f2 1.6: worksFor(x, y)@t ^ locatedIn(y, z)@t2 ^ overlaps(t, t2) => livesIn(x, z)@(t * t2) .
rule f3 2.9: playsFor(x, y)@t ^ birthDate(x, z)@t2 ^ t - t2 < 20 => TeenPlayer(x) .
constraint c1: birthDate(x, y)@t ^ deathDate(x, z)@t2 => before(t, t2) .
constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) .
constraint c3: bornIn(x, y)@t ^ bornIn(x, z)@t2 ^ overlaps(t, t2) => y = z .|}

let test_paper_program () =
  let rules = parse_ok paper_program in
  Alcotest.(check int) "six declarations" 6 (List.length rules);
  Alcotest.(check int) "three inference rules" 3
    (List.length (List.filter Rule.is_inference rules));
  Alcotest.(check int) "three hard constraints" 3
    (List.length (List.filter (fun r -> Rule.is_hard r && not (Rule.is_inference r)) rules))

let test_printer_roundtrip () =
  let rules = parse_ok paper_program in
  let printed = Rulelang.Printer.program_to_string rules in
  let reparsed = parse_ok printed in
  Alcotest.(check int) "same count" (List.length rules) (List.length reparsed);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same rendering"
        (Rulelang.Printer.rule_to_string a)
        (Rulelang.Printer.rule_to_string b))
    rules reparsed

(* [pp_rule]/[pp_program] print stored names; passing the prefix
   table's [shrink] gives the compact source form, which reparses to the
   same rules under that table. *)
let test_printer_shrink () =
  let ns = Kg.Namespace.create () in
  let src = "rule n 1.5: ex:p(x, ex:K)@t => ex:q(x, ex:K)@t ." in
  let rules =
    match Rulelang.Parser.parse_string ~namespace:ns src with
    | Ok rules -> rules
    | Error e -> Alcotest.fail (Format.asprintf "%a" Rulelang.Parser.pp_error e)
  in
  let r = List.hd rules in
  Alcotest.(check string) "pp_rule prints stored names"
    "rule n 1.5: http://example.org/p(x, http://example.org/K)@t => \
     http://example.org/q(x, http://example.org/K)@t ."
    (Format.asprintf "%a" Rulelang.Printer.pp_rule r);
  Alcotest.(check string) "pp_program agrees with program_to_string"
    (Rulelang.Printer.program_to_string rules)
    (Format.asprintf "@[<v>%a@]" Rulelang.Printer.pp_program rules);
  let shrunk =
    Rulelang.Printer.program_to_string ~shrink:(Kg.Namespace.shrink ns) rules
  in
  Alcotest.(check string) "shrunk form"
    "rule n 1.5: ex:p(x, ex:K)@t => ex:q(x, ex:K)@t ." shrunk;
  match Rulelang.Parser.parse_string ~namespace:ns shrunk with
  | Ok [ r' ] -> Alcotest.(check bool) "reparses to the same rule" true (r = r')
  | _ -> Alcotest.fail "shrunk form does not reparse"

let () =
  Alcotest.run "rulelang"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "iri vs lt" `Quick test_lexer_iri_vs_lt;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "inference rule" `Quick test_parse_inference_rule;
          Alcotest.test_case "hard constraint" `Quick test_parse_constraint_hard;
          Alcotest.test_case "soft constraint" `Quick test_parse_soft_constraint;
          Alcotest.test_case "equality head" `Quick test_parse_equality_head;
          Alcotest.test_case "bottom head" `Quick test_parse_bottom_head;
          Alcotest.test_case "computed interval" `Quick test_parse_computed_interval;
          Alcotest.test_case "hull" `Quick test_parse_hull;
          Alcotest.test_case "temporal arith" `Quick test_temporal_arith_resolution;
          Alcotest.test_case "value stays object" `Quick test_value_stays_object;
          Alcotest.test_case "quad sugar" `Quick test_quad_sugar;
          Alcotest.test_case "constants vs variables" `Quick
            test_constants_vs_variables;
          Alcotest.test_case "literal constants" `Quick
            test_numeric_and_string_constants;
          Alcotest.test_case "namespace expansion" `Quick test_namespace_expansion;
          Alcotest.test_case "multiple statements" `Quick test_multiple_statements;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "unsafe reported" `Quick test_unsafe_reported_with_name;
          Alcotest.test_case "paper program" `Quick test_paper_program;
        ] );
      ( "printer",
        [
          Alcotest.test_case "roundtrip" `Quick test_printer_roundtrip;
          Alcotest.test_case "shrink" `Quick test_printer_shrink;
        ] );
    ]
