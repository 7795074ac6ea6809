(* Tests for KG diffing. *)

module Diff = Tecore.Diff

let g quads = Kg.Graph.of_list quads
let q ?(c = 0.9) s p o span = Kg.Quad.v s p (Kg.Term.iri o) span c

let test_diff_empty () =
  let a = g [ q "s" "p" "o" (1, 2) ] in
  let d = Diff.diff a (Kg.Graph.copy a) in
  Alcotest.(check bool) "empty diff" true (Diff.is_empty d);
  Alcotest.(check int) "unchanged" 1 d.Diff.unchanged

let test_diff_additions_removals () =
  let left = g [ q "a" "p" "x" (1, 2); q "b" "p" "y" (1, 2) ] in
  let right = g [ q "b" "p" "y" (1, 2); q "c" "p" "z" (1, 2) ] in
  let d = Diff.diff left right in
  Alcotest.(check int) "one removed" 1 (List.length d.Diff.only_left);
  Alcotest.(check int) "one added" 1 (List.length d.Diff.only_right);
  Alcotest.(check int) "one shared" 1 d.Diff.unchanged;
  Alcotest.(check string) "removed is a" "a"
    (Kg.Term.to_string (List.hd d.Diff.only_left).Kg.Quad.subject);
  Alcotest.(check string) "added is c" "c"
    (Kg.Term.to_string (List.hd d.Diff.only_right).Kg.Quad.subject)

let test_diff_confidence_change () =
  let left = g [ q ~c:0.9 "a" "p" "x" (1, 2) ] in
  let right = g [ q ~c:0.4 "a" "p" "x" (1, 2) ] in
  let d = Diff.diff left right in
  Alcotest.(check int) "one changed" 1 (List.length d.Diff.confidence_changed);
  Alcotest.(check bool) "not empty" false (Diff.is_empty d);
  let l, r = List.hd d.Diff.confidence_changed in
  Alcotest.(check bool) "directions" true
    (l.Kg.Quad.confidence = 0.9 && r.Kg.Quad.confidence = 0.4)

let test_diff_interval_matters () =
  (* Same triple, different interval: an add + a remove, not a change. *)
  let left = g [ q "a" "p" "x" (1, 2) ] in
  let right = g [ q "a" "p" "x" (1, 3) ] in
  let d = Diff.diff left right in
  Alcotest.(check int) "removed" 1 (List.length d.Diff.only_left);
  Alcotest.(check int) "added" 1 (List.length d.Diff.only_right)

let test_diff_resolution_use_case () =
  (* Diffing input against its resolution shows exactly the removals and
     the derived facts. *)
  let graph =
    g [ q ~c:0.9 "x" "coach" "A" (2000, 2005); q ~c:0.6 "x" "coach" "B" (2003, 2007) ]
  in
  let rules =
    match
      Rulelang.Parser.parse_string
        "constraint c2: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => disjoint(t, t2) ."
    with
    | Ok r -> r
    | Error _ -> Alcotest.fail "parse"
  in
  let result = Tecore.Engine.resolve graph rules in
  let d = Diff.diff graph result.Tecore.Engine.resolution.Tecore.Conflict.consistent in
  Alcotest.(check int) "the removed fact" 1 (List.length d.Diff.only_left);
  Alcotest.(check int) "nothing added (no inference rules)" 0
    (List.length d.Diff.only_right)

(* Objects are compared as terms, not as their %g spellings: floats
   that print alike and an integer against its float stay distinct. *)
let test_diff_term_identity () =
  let lit o = Kg.Quad.v "a" "p" o (1, 2) 0.9 in
  let d =
    Diff.diff
      (g [ lit (Kg.Term.float 0.1234567); lit (Kg.Term.int 5) ])
      (g [ lit (Kg.Term.float 0.1234568); lit (Kg.Term.float 5.0) ])
  in
  Alcotest.(check int) "nothing unchanged" 0 d.Diff.unchanged;
  Alcotest.(check int) "both left facts removed" 2
    (List.length d.Diff.only_left);
  Alcotest.(check int) "both right facts added" 2
    (List.length d.Diff.only_right);
  Alcotest.(check bool) "not empty" false (Diff.is_empty d)

let test_diff_pp () =
  let left = g [ q "a" "p" "x" (1, 2) ] in
  let right = g [ q "b" "p" "y" (1, 2) ] in
  let s = Format.asprintf "%a" Diff.pp (Diff.diff left right) in
  Alcotest.(check bool) "minus line" true (String.contains s '-');
  Alcotest.(check bool) "plus line" true (String.contains s '+')

let () =
  Alcotest.run "diff"
    [
      ( "diff",
        [
          Alcotest.test_case "empty" `Quick test_diff_empty;
          Alcotest.test_case "add/remove" `Quick test_diff_additions_removals;
          Alcotest.test_case "confidence change" `Quick
            test_diff_confidence_change;
          Alcotest.test_case "interval identity" `Quick
            test_diff_interval_matters;
          Alcotest.test_case "resolution diff" `Quick
            test_diff_resolution_use_case;
          Alcotest.test_case "term identity" `Quick test_diff_term_identity;
          Alcotest.test_case "pp" `Quick test_diff_pp;
        ] );
    ]
