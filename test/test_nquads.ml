(* Tests for the temporal-quads serialisation format. *)

module N = Kg.Nquads
module G = Kg.Graph
module Q = Kg.Quad
module T = Kg.Term

let quad_testable = Alcotest.testable Q.pp ( = )

let parse_ok text =
  match N.parse_string text with
  | Ok g -> g
  | Error e -> Alcotest.fail (Format.asprintf "%a" N.pp_error e)

let parse_err text =
  match N.parse_string text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

let test_basic_fact () =
  let g = parse_ok "ex:CR ex:coach ex:Chelsea [2000,2004] 0.9 ." in
  Alcotest.(check int) "one fact" 1 (G.size g);
  let q = List.hd (G.to_list g) in
  Alcotest.check quad_testable "expanded"
    (Q.v "http://example.org/CR" "http://example.org/coach"
       (T.iri "http://example.org/Chelsea")
       (2000, 2004) 0.9)
    q

let test_default_confidence () =
  let g = parse_ok "ex:CR ex:birthDate 1951 [1951,2017] ." in
  let q = List.hd (G.to_list g) in
  Alcotest.(check bool) "certain" true (Q.is_certain q);
  Alcotest.check (Alcotest.testable T.pp T.equal) "int object" (T.int 1951)
    q.Q.object_

let test_optional_dot () =
  let g = parse_ok "a p b [1,2] 0.5" in
  Alcotest.(check int) "fact without dot" 1 (G.size g)

let test_comments_and_blanks () =
  let g =
    parse_ok
      "# a comment\n\n  \t\na p b [1,2] 0.5 . # trailing comment\n# done\n"
  in
  Alcotest.(check int) "one fact" 1 (G.size g)

let test_prefix_directive () =
  let g =
    parse_ok
      "@prefix foo: <http://foo.example/> .\nfoo:x foo:p foo:y [1,2] .\n"
  in
  let q = List.hd (G.to_list g) in
  Alcotest.(check string) "expanded subject" "http://foo.example/x"
    (T.to_string q.Q.subject)

let test_explicit_iri () =
  let g = parse_ok "<http://a/s> <http://a/p> <http://a/o> [3] ." in
  let q = List.hd (G.to_list g) in
  Alcotest.(check string) "subject" "http://a/s" (T.to_string q.Q.subject);
  Alcotest.(check int) "point interval" 3 (Kg.Interval.lo q.Q.time)

let test_string_literal () =
  let g = parse_ok {|a label "hello world" [1,2] 0.8 .|} in
  let q = List.hd (G.to_list g) in
  Alcotest.check (Alcotest.testable T.pp T.equal) "string object"
    (T.str "hello world") q.Q.object_

let contains ~needle hay =
  let n = String.length needle and m = String.length hay in
  let rec at i = i + n <= m && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* Malformed inputs must come back as [Error] with the offending line
   (and, for lexical errors, the column) — never as an exception. *)
let test_malformed_regressions () =
  let cases =
    [
      (* input, expected line, fragment the message must mention *)
      ("a p \"unterminated [1,2] .", 1, "unterminated string literal");
      ("a p <no-close [1,2] .", 1, "unterminated <iri>");
      ("a p b [1,2 .", 1, "unterminated [interval]");
      ("a p b [5,3] .", 1, "");             (* inverted interval *)
      ("a p b [x,y] .", 1, "");             (* non-numeric bounds *)
      ("a p b [1,2] 0.5 junk extra .", 1, "field");
      ("a p b [1,2] nan .", 1, "");         (* nan confidence rejected *)
      ("a p b [1,2] inf .", 1, "");
      ("a p b [1,2] -0.5 .", 1, "");
      ("a p b [1,2] 0.0 .", 1, "");         (* zero confidence invalid *)
      ("a p b [1,2] 1.5 .", 1, "");         (* above one invalid *)
      ("ok p b [1,2] .\na p \"oops [1,2] .", 2, "unterminated string literal");
      ("ok p b [1,2] .\n\n# comment\nbad bad\n", 4, "field");
    ]
  in
  List.iter
    (fun (input, line, fragment) ->
      match N.parse_string input with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" input
      | Error e ->
          Alcotest.(check int)
            (Printf.sprintf "line for %S" input)
            line e.N.line;
          if fragment <> "" then
            Alcotest.(check bool)
              (Printf.sprintf "message %S mentions %S" e.N.message fragment)
              true
              (contains ~needle:fragment e.N.message)
      | exception exn ->
          Alcotest.failf "raised %s on %S" (Printexc.to_string exn) input)
    cases

let test_error_columns () =
  let e = parse_err "a p \"late unterminated [1,2] ." in
  Alcotest.(check (option int)) "structured column" (Some 5) e.N.column;
  Alcotest.(check bool)
    (Printf.sprintf "pp_error renders the column of %S" e.N.message)
    true
    (contains ~needle:"column 5" (Format.asprintf "%a" N.pp_error e));
  (* Columns count on the raw line: indentation included. *)
  let e = parse_err "ok p b [1,2] .\n  a p \"late unterminated [1,2] ." in
  Alcotest.(check (option int)) "indented column" (Some 7) e.N.column;
  let e = parse_err "\t a p <open [1,2] ." in
  Alcotest.(check (option int)) "tab-indented column" (Some 7) e.N.column;
  (* Structural errors carry no column. *)
  let e = parse_err "a p b\n" in
  Alcotest.(check (option int)) "no column" None e.N.column;
  (* The single-line entry point keeps embedding the column in its
     string error for backwards compatibility. *)
  (match N.parse_quad (Kg.Namespace.create ()) "a p \"oops [1,2] ." with
  | Ok _ -> Alcotest.fail "accepted unterminated string"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "parse_quad embeds column in %S" msg)
        true
        (contains ~needle:"(column 5)" msg))

let test_errors () =
  let e = parse_err "a p b\n" in
  Alcotest.(check int) "line 1" 1 e.N.line;
  let e = parse_err "ok p b [1,2] .\nbad bad\n" in
  Alcotest.(check int) "line 2" 2 e.N.line;
  ignore (parse_err "a p b [5,3] .");
  ignore (parse_err "a p b [1,2] conf .");
  ignore (parse_err "a p b [1,2] 1.5 .");
  (* confidence above 1 *)
  ignore (parse_err "@prefix broken\n")

let test_roundtrip_explicit () =
  let ns = Kg.Namespace.create () in
  let g =
    parse_ok
      {|ex:CR ex:coach ex:Chelsea [2000,2004] 0.9 .
ex:CR ex:birthDate 1951 [1951,2017] .
ex:CR ex:label "the tinkerman" [2000,2004] 0.7 .|}
  in
  let text = N.to_string ~namespace:ns g in
  let g' = parse_ok text in
  Alcotest.(check int) "same size" (G.size g) (G.size g');
  List.iter2
    (fun a b -> Alcotest.check quad_testable "fact preserved" a b)
    (G.to_list g) (G.to_list g')

let test_file_roundtrip () =
  let g = parse_ok "a p b [1,2] 0.5 ." in
  let path = Filename.temp_file "tecore" ".tq" in
  N.save_file path g;
  (match N.parse_file path with
  | Ok g' -> Alcotest.(check int) "file roundtrip" (G.size g) (G.size g')
  | Error e -> Alcotest.fail (Format.asprintf "%a" N.pp_error e));
  Sys.remove path

(* Float objects survive save_file -> parse_file as the same float:
   [2.0] does not come back as the integer 2, nor [0.123456789] as a
   six-digit rounding. *)
let test_file_roundtrip_floats () =
  let quads =
    [
      Q.v "a" "p" (T.float 2.0) (1, 2) 0.5;
      Q.v "a" "q" (T.float 0.123456789) (3, 4) 1.0;
    ]
  in
  let path = Filename.temp_file "tecore" ".tq" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      N.save_file path (G.of_list quads);
      let facts = "a p 2. [1,2] 0.5 .\na q 0.123456789 [3,4] .\n" in
      let text = In_channel.with_open_bin path In_channel.input_all in
      let n = String.length text and k = String.length facts in
      Alcotest.(check string)
        "fact lines" facts
        (String.sub text (max 0 (n - k)) (min n k));
      match N.parse_file path with
      | Ok g -> Alcotest.(check (list quad_testable)) "reparsed" quads (G.to_list g)
      | Error e -> Alcotest.fail (Format.asprintf "%a" N.pp_error e))

let test_parse_quad_single () =
  let ns = Kg.Namespace.create () in
  (match N.parse_quad ns "ex:a ex:p ex:b [1,5] 0.75" with
  | Ok q -> Alcotest.(check bool) "confidence" true (q.Q.confidence = 0.75)
  | Error e -> Alcotest.fail e);
  match N.parse_quad ns "too few" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let test_namespace_expand_shrink () =
  let ns = Kg.Namespace.create () in
  Alcotest.(check string) "expand bound" "http://example.org/CR"
    (Kg.Namespace.expand ns "ex:CR");
  Alcotest.(check string) "unbound prefix unchanged" "zz:CR"
    (Kg.Namespace.expand ns "zz:CR");
  Alcotest.(check string) "no prefix unchanged" "CR"
    (Kg.Namespace.expand ns "CR");
  Alcotest.(check string) "shrink" "ex:CR"
    (Kg.Namespace.shrink ns "http://example.org/CR");
  Alcotest.(check string) "shrink unknown unchanged" "http://other.org/CR"
    (Kg.Namespace.shrink ns "http://other.org/CR");
  Kg.Namespace.add ns ~prefix:"exp" ~iri:"http://example.org/people/";
  Alcotest.(check string) "longest match wins" "exp:CR"
    (Kg.Namespace.shrink ns "http://example.org/people/CR");
  Alcotest.(check string) "shorter binding still used" "ex:Chelsea"
    (Kg.Namespace.shrink ns "http://example.org/Chelsea")

let test_parse_prefix () =
  Alcotest.(check bool) "not a directive" true
    (N.parse_prefix "ex:a ex:p ex:b [1,2] ." = None);
  Alcotest.(check bool) "directive" true
    (N.parse_prefix "@prefix dbp: <http://dbpedia.org/resource/> ."
    = Some (Ok ("dbp", "http://dbpedia.org/resource/")));
  Alcotest.(check bool) "malformed" true
    (N.parse_prefix "@prefix broken" = Some (Error "malformed @prefix"))

(* One fact line per quad: IRIs shrunk, the confidence omitted when
   certain, float objects keep a decimal point. *)
let test_fact_line () =
  let ns = Kg.Namespace.create () in
  let line q = N.fact_line ns q in
  Alcotest.(check string) "shrunk, with confidence"
    "ex:CR ex:coach ex:Chelsea [2000,2004] 0.9 ."
    (line
       (Q.v "http://example.org/CR" "http://example.org/coach"
          (T.iri "http://example.org/Chelsea") (2000, 2004) 0.9));
  Alcotest.(check string) "certain: no confidence" "a born 1951 [1951] ."
    (line (Q.v "a" "born" (T.int 1951) (1951, 1951) 1.0));
  Alcotest.(check string) "integral float keeps its point" "a w 2. [1,2] ."
    (line (Q.v "a" "w" (T.float 2.0) (1, 2) 1.0));
  Alcotest.(check string) "negative integral float" "a w -3. [1,2] ."
    (line (Q.v "a" "w" (T.float (-3.0)) (1, 2) 1.0));
  Alcotest.(check string) "all digits kept" "a w 0.123456789 [1,2] ."
    (line (Q.v "a" "w" (T.float 0.123456789) (1, 2) 1.0));
  Alcotest.(check string) "string literal quoted" "a label \"x y\" [1,2] ."
    (line (Q.v "a" "label" (T.str "x y") (1, 2) 1.0))

(* Every quad the printer writes parses back to itself. *)
let arbitrary_fact =
  let open QCheck in
  let name = Gen.(map (Printf.sprintf "n%d") (int_range 0 9)) in
  let iri =
    Gen.(
      oneof
        [
          map T.iri name;
          map (fun n -> T.iri ("http://example.org/" ^ n)) name;
        ])
  in
  let object_ =
    Gen.(
      oneof
        [
          iri;
          map T.int (int_range (-100_000) 100_000);
          map T.float (map (fun f -> if Float.is_finite f then f else 0.5) float);
          map T.float (map float_of_int (int_range (-50) 50));
          map T.str (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        ])
  in
  let quad =
    Gen.(
      map
        (fun ((s, p, o), (lo, len), conf) ->
          Q.make ~confidence:conf ~subject:s ~predicate:p ~object_:o
            (Kg.Interval.make lo (lo + len)))
        (triple (triple iri iri object_)
           (pair (int_range (-50) 50) (int_range 0 30))
           (oneof [ return 1.0; float_range 0.001 1.0 ])))
  in
  make ~print:Q.to_string quad

let qcheck_fact_line_reparses =
  QCheck.Test.make ~name:"fact_line reparses to the same quad" ~count:1000
    arbitrary_fact (fun q ->
      let ns = Kg.Namespace.create () in
      match N.parse_quad ns (N.fact_line ns q) with
      | Ok q' -> q' = q
      | Error _ -> false)

(* Round-trip property over generated graphs. *)
let arbitrary_quads =
  let quad_gen =
    QCheck.map
      (fun ((s, o), (lo, len), conf10) ->
        Q.v
          (Printf.sprintf "s%d" s)
          "pred"
          (T.iri (Printf.sprintf "o%d" o))
          (lo, lo + len)
          (float_of_int (conf10 + 1) /. 10.0))
      QCheck.(
        triple
          (pair (int_range 0 20) (int_range 0 20))
          (pair (int_range (-50) 50) (int_range 0 30))
          (int_range 0 9))
  in
  QCheck.(list_of_size (Gen.int_range 0 40) quad_gen)

let qcheck_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:200 arbitrary_quads
    (fun quads ->
      let g = G.of_list quads in
      match N.parse_string (N.to_string g) with
      | Error _ -> false
      | Ok g' ->
          let xs = G.to_list g and ys = G.to_list g' in
          xs = ys)

let () =
  Alcotest.run "nquads"
    [
      ( "parsing",
        [
          Alcotest.test_case "basic fact" `Quick test_basic_fact;
          Alcotest.test_case "default confidence" `Quick test_default_confidence;
          Alcotest.test_case "optional dot" `Quick test_optional_dot;
          Alcotest.test_case "comments/blanks" `Quick test_comments_and_blanks;
          Alcotest.test_case "prefix directive" `Quick test_prefix_directive;
          Alcotest.test_case "explicit iri" `Quick test_explicit_iri;
          Alcotest.test_case "string literal" `Quick test_string_literal;
          Alcotest.test_case "errors with line numbers" `Quick test_errors;
          Alcotest.test_case "malformed regressions" `Quick
            test_malformed_regressions;
          Alcotest.test_case "error columns" `Quick test_error_columns;
          Alcotest.test_case "parse_quad" `Quick test_parse_quad_single;
          Alcotest.test_case "parse_prefix" `Quick test_parse_prefix;
          Alcotest.test_case "namespace expand/shrink" `Quick
            test_namespace_expand_shrink;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "explicit" `Quick test_roundtrip_explicit;
          Alcotest.test_case "file" `Quick test_file_roundtrip;
          Alcotest.test_case "file, float objects" `Quick
            test_file_roundtrip_floats;
          Alcotest.test_case "fact_line" `Quick test_fact_line;
          QCheck_alcotest.to_alcotest qcheck_fact_line_reparses;
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
        ] );
    ]
