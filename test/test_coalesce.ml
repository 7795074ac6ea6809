(* Tests for temporal coalescing and timelines. *)

module C = Kg.Coalesce
module G = Kg.Graph
module Q = Kg.Quad
module T = Kg.Term
module I = Kg.Interval

let facts_of g = List.map Q.to_string (G.to_list g)

let test_merges_overlapping () =
  let g =
    G.of_list
      [
        Q.v "a" "p" (T.iri "b") (2001, 2003) 0.5;
        Q.v "a" "p" (T.iri "b") (2002, 2005) 0.5;
      ]
  in
  let merged = C.coalesce g in
  Alcotest.(check int) "one fact" 1 (G.size merged);
  let q = List.hd (G.to_list merged) in
  Alcotest.(check int) "lo" 2001 (I.lo q.Q.time);
  Alcotest.(check int) "hi" 2005 (I.hi q.Q.time);
  (* noisy-or: 1 - 0.5*0.5 *)
  Alcotest.(check bool) "noisy-or confidence" true
    (Float.abs (q.Q.confidence -. 0.75) < 1e-9)

let test_merges_adjacent () =
  let g =
    G.of_list
      [
        Q.v "a" "p" (T.iri "b") (2001, 2003) 0.9;
        Q.v "a" "p" (T.iri "b") (2004, 2006) 0.9;
      ]
  in
  let merged = C.coalesce g in
  Alcotest.(check int) "adjacent merge" 1 (G.size merged);
  Alcotest.(check int) "hull hi" 2006 (I.hi (List.hd (G.to_list merged)).Q.time)

let test_keeps_gaps () =
  let g =
    G.of_list
      [
        Q.v "a" "p" (T.iri "b") (2001, 2002) 0.9;
        Q.v "a" "p" (T.iri "b") (2005, 2006) 0.9;
      ]
  in
  Alcotest.(check int) "gap preserved" 2 (G.size (C.coalesce g))

let test_distinct_statements_untouched () =
  let g =
    G.of_list
      [
        Q.v "a" "p" (T.iri "b") (2001, 2003) 0.9;
        Q.v "a" "p" (T.iri "c") (2002, 2004) 0.9;
        Q.v "a" "q" (T.iri "b") (2001, 2003) 0.9;
        Q.v "z" "p" (T.iri "b") (2001, 2003) 0.9;
      ]
  in
  Alcotest.(check int) "no cross-statement merge" 4 (G.size (C.coalesce g))

let test_unsorted_input () =
  let g =
    G.of_list
      [
        Q.v "a" "p" (T.iri "b") (2005, 2007) 0.6;
        Q.v "a" "p" (T.iri "b") (2001, 2003) 0.6;
        Q.v "a" "p" (T.iri "b") (2003, 2005) 0.6;
      ]
  in
  let merged = C.coalesce g in
  Alcotest.(check (list string)) "single chain"
    [ "(a, p, b, [2001,2007]) 0.936" ]
    (facts_of merged)

let test_confidence_capped () =
  let g =
    G.of_list
      (List.init 100 (fun i -> Q.v "a" "p" (T.iri "b") (i, i + 1) 0.9))
  in
  let merged = C.coalesce g in
  Alcotest.(check int) "all merged" 1 (G.size merged);
  let q = List.hd (G.to_list merged) in
  Alcotest.(check bool) "confidence <= 1" true (q.Q.confidence <= 1.0)

let test_timeline_segments_sorted () =
  let g =
    G.of_list
      [
        Q.v "a" "p" (T.iri "late") (2010, 2012) 0.9;
        Q.v "a" "p" (T.iri "early") (2001, 2003) 0.9;
      ]
  in
  let t = C.timeline g ~subject:(T.iri "a") ~predicate:(T.iri "p") in
  Alcotest.(check int) "two segments" 2 (List.length t.C.segments);
  Alcotest.(check string) "sorted" "early"
    (T.to_string (List.hd t.C.segments).C.object_)

let test_timeline_gap_detection () =
  let g =
    G.of_list
      [
        Q.v "a" "p" (T.iri "x") (2001, 2003) 0.9;
        Q.v "a" "p" (T.iri "y") (2008, 2010) 0.9;
      ]
  in
  let t = C.timeline g ~subject:(T.iri "a") ~predicate:(T.iri "p") in
  match t.C.issues with
  | [ C.Gap gap ] ->
      Alcotest.(check int) "gap lo" 2004 (I.lo gap);
      Alcotest.(check int) "gap hi" 2007 (I.hi gap)
  | _ -> Alcotest.fail "expected one gap"

let test_timeline_overlap_detection () =
  let g =
    G.of_list
      [
        Q.v "a" "p" (T.iri "x") (2001, 2005) 0.9;
        Q.v "a" "p" (T.iri "y") (2004, 2008) 0.9;
      ]
  in
  let t = C.timeline g ~subject:(T.iri "a") ~predicate:(T.iri "p") in
  match t.C.issues with
  | [ C.Overlap (i, a, b) ] ->
      Alcotest.(check int) "overlap lo" 2004 (I.lo i);
      Alcotest.(check int) "overlap hi" 2005 (I.hi i);
      Alcotest.(check bool) "objects" true
        (T.to_string a = "x" && T.to_string b = "y")
  | _ -> Alcotest.fail "expected one overlap"

(* The curator's view: one line per segment, then one per issue. *)
let test_pp_timeline () =
  let g =
    G.of_list
      [
        Q.v "a" "p" (T.iri "x") (2001, 2005) 0.9;
        Q.v "a" "p" (T.iri "y") (2004, 2008) 0.5;
        Q.v "a" "p" (T.iri "z") (2012, 2014) 1.0;
      ]
  in
  let t = C.timeline g ~subject:(T.iri "a") ~predicate:(T.iri "p") in
  Alcotest.(check string) "rendering"
    "a / p:\n\
    \  [2001,2005] x (0.9)\n\
    \  [2004,2008] y (0.5)\n\
    \  [2012,2014] z (1)\n\
    \  overlap [2004,2005]: x vs y\n\
    \  gap [2009,2011]"
    (Format.asprintf "%a" C.pp_timeline t)

let test_timeline_same_object_overlap_ok () =
  (* Overlapping segments of the same object are not an issue (they
     coalesce away). *)
  let g =
    G.of_list
      [
        Q.v "a" "p" (T.iri "x") (2001, 2005) 0.9;
        Q.v "a" "p" (T.iri "x") (2004, 2008) 0.9;
      ]
  in
  let t = C.timeline g ~subject:(T.iri "a") ~predicate:(T.iri "p") in
  Alcotest.(check int) "no issues" 0 (List.length t.C.issues)

let test_timeline_empty () =
  let g = G.create () in
  let t = C.timeline g ~subject:(T.iri "a") ~predicate:(T.iri "p") in
  Alcotest.(check int) "no segments" 0 (List.length t.C.segments);
  Alcotest.(check int) "no issues" 0 (List.length t.C.issues)

(* Property: coalescing preserves the covered time points per statement. *)
let arbitrary_intervals =
  QCheck.(
    list_of_size (Gen.int_range 1 20)
      (pair (int_range 0 50) (int_range 0 8)))

let covered quads =
  let points = Hashtbl.create 64 in
  List.iter
    (fun (q : Q.t) ->
      for p = I.lo q.Q.time to I.hi q.Q.time do
        Hashtbl.replace points p ()
      done)
    quads;
  Hashtbl.fold (fun p () acc -> p :: acc) points [] |> List.sort Int.compare

let qcheck_coverage_preserved =
  QCheck.Test.make ~name:"coalesce preserves covered time points" ~count:300
    arbitrary_intervals (fun spans ->
      let quads =
        List.map (fun (lo, len) -> Q.v "a" "p" (T.iri "b") (lo, lo + len) 0.9) spans
      in
      let g = G.of_list quads in
      covered (G.to_list (C.coalesce g)) = covered quads)

let qcheck_no_mergeable_remains =
  QCheck.Test.make ~name:"no two output intervals are mergeable" ~count:300
    arbitrary_intervals (fun spans ->
      let quads =
        List.map (fun (lo, len) -> Q.v "a" "p" (T.iri "b") (lo, lo + len) 0.9) spans
      in
      let out = G.to_list (C.coalesce (G.of_list quads)) in
      List.for_all
        (fun (a : Q.t) ->
          List.for_all
            (fun (b : Q.t) ->
              a = b
              || not
                   (I.overlaps a.Q.time b.Q.time
                   || I.hi a.Q.time + 1 = I.lo b.Q.time
                   || I.hi b.Q.time + 1 = I.lo a.Q.time))
            out)
        out)

(* Canonical form of a graph: statement + interval keys sorted, with
   confidences compared separately under a small tolerance (noisy-or
   accumulation is order-independent only up to float association). *)
let canonical g =
  G.to_list g
  |> List.map (fun (q : Q.t) ->
         ( ( T.to_string q.Q.subject,
             T.to_string q.Q.predicate,
             T.to_string q.Q.object_,
             I.lo q.Q.time,
             I.hi q.Q.time ),
           q.Q.confidence ))
  |> List.sort compare

let canonical_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ka, ca) (kb, cb) -> ka = kb && Float.abs (ca -. cb) <= 1e-9)
       a b

let arbitrary_quads =
  (* Several statements so merging interleaves across groups. *)
  QCheck.(
    list_of_size (Gen.int_range 1 25)
      (quad (int_range 0 2) (int_range 0 2) (pair (int_range 0 40) (int_range 0 6))
         (int_range 1 9)))
  |> QCheck.map
       (List.map (fun (s, p, (lo, len), c) ->
            Q.v
              (Printf.sprintf "s%d" s)
              (Printf.sprintf "p%d" p)
              (T.iri "o") (lo, lo + len)
              (float_of_int c /. 10.0)))

let qcheck_idempotent =
  QCheck.Test.make ~name:"coalesce is idempotent" ~count:300 arbitrary_quads
    (fun quads ->
      let once = C.coalesce (G.of_list quads) in
      let twice = C.coalesce once in
      canonical_equal (canonical once) (canonical twice))

let shuffle seed l =
  let rng = Prelude.Prng.create seed in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Prelude.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let qcheck_order_independent =
  QCheck.Test.make ~name:"coalesce is insertion-order independent" ~count:300
    QCheck.(pair arbitrary_quads (int_bound 1_000_000))
    (fun (quads, seed) ->
      let a = C.coalesce (G.of_list quads) in
      let b = C.coalesce (G.of_list (shuffle seed quads)) in
      canonical_equal (canonical a) (canonical b))

let () =
  Alcotest.run "coalesce"
    [
      ( "coalesce",
        [
          Alcotest.test_case "merges overlapping" `Quick test_merges_overlapping;
          Alcotest.test_case "merges adjacent" `Quick test_merges_adjacent;
          Alcotest.test_case "keeps gaps" `Quick test_keeps_gaps;
          Alcotest.test_case "distinct statements untouched" `Quick
            test_distinct_statements_untouched;
          Alcotest.test_case "unsorted input" `Quick test_unsorted_input;
          Alcotest.test_case "confidence capped" `Quick test_confidence_capped;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "segments sorted" `Quick test_timeline_segments_sorted;
          Alcotest.test_case "gap detection" `Quick test_timeline_gap_detection;
          Alcotest.test_case "overlap detection" `Quick
            test_timeline_overlap_detection;
          Alcotest.test_case "same-object overlap ok" `Quick
            test_timeline_same_object_overlap_ok;
          Alcotest.test_case "empty" `Quick test_timeline_empty;
          Alcotest.test_case "pp_timeline" `Quick test_pp_timeline;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_coverage_preserved;
          QCheck_alcotest.to_alcotest qcheck_no_mergeable_remains;
          QCheck_alcotest.to_alcotest qcheck_idempotent;
          QCheck_alcotest.to_alcotest qcheck_order_independent;
        ] );
    ]
