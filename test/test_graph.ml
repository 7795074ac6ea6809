(* Tests for the indexed quad store. *)

module G = Kg.Graph
module Q = Kg.Quad
module T = Kg.Term

let quad_testable = Alcotest.testable Q.pp ( = )

let sample () =
  let g = G.create () in
  let ids =
    List.map (G.add g)
      [
        Q.v "CR" "coach" (T.iri "Chelsea") (2000, 2004) 0.9;
        Q.v "CR" "coach" (T.iri "Leicester") (2015, 2017) 0.7;
        Q.v "CR" "playsFor" (T.iri "Palermo") (1984, 1986) 0.5;
        Q.v "CR" "birthDate" (T.int 1951) (1951, 2017) 1.0;
        Q.v "CR" "coach" (T.iri "Napoli") (2001, 2003) 0.6;
        Q.v "Kid" "playsFor" (T.iri "Ajax") (2010, 2012) 0.8;
      ]
  in
  (g, ids)

let test_add_size () =
  let g, ids = sample () in
  Alcotest.(check int) "size" 6 (G.size g);
  Alcotest.(check (list int)) "ids are dense" [ 0; 1; 2; 3; 4; 5 ] ids

let test_remove () =
  let g, _ = sample () in
  G.remove g 4;
  Alcotest.(check int) "size after remove" 5 (G.size g);
  Alcotest.(check bool) "id dead" false (G.mem_id g 4);
  G.remove g 4;
  Alcotest.(check int) "remove idempotent" 5 (G.size g)

let test_unknown_id () =
  let g, _ = sample () in
  Alcotest.(check bool) "mem_id unknown" false (G.mem_id g 99);
  (match G.find g 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "find must reject unknown ids");
  match G.remove g (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "remove must reject unknown ids"

let test_queries () =
  let g, _ = sample () in
  Alcotest.(check int) "coach facts" 3
    (List.length (G.by_predicate g (T.iri "coach")));
  Alcotest.(check int) "CR coach facts" 3
    (List.length (G.by_subject_predicate g (T.iri "CR") (T.iri "coach")));
  Alcotest.(check int) "Kid playsFor" 1
    (List.length (G.by_subject_predicate g (T.iri "Kid") (T.iri "playsFor")))

let test_queries_respect_tombstones () =
  let g, _ = sample () in
  G.remove g 0;
  Alcotest.(check int) "coach facts after remove" 2
    (List.length (G.by_predicate g (T.iri "coach")))

let test_predicates () =
  let g, _ = sample () in
  let preds = G.predicates g in
  Alcotest.(check int) "three predicates" 3 (List.length preds);
  (match preds with
  | (p, c) :: _ ->
      Alcotest.(check string) "coach most frequent" "coach" (T.to_string p);
      Alcotest.(check int) "count" 3 c
  | [] -> Alcotest.fail "no predicates")

let test_copy_independent () =
  let g, _ = sample () in
  G.remove g 1;
  let g' = G.copy g in
  Alcotest.(check int) "copy size" (G.size g) (G.size g');
  Alcotest.(check bool) "tombstone copied" false (G.mem_id g' 1);
  G.remove g' 0;
  Alcotest.(check bool) "original unaffected" true (G.mem_id g 0)

let test_of_list_roundtrip () =
  let quads =
    [
      Q.v "a" "p" (T.iri "b") (1, 2) 0.5;
      Q.v "c" "p" (T.iri "d") (3, 4) 0.6;
    ]
  in
  let g = G.of_list quads in
  Alcotest.(check (list quad_testable)) "roundtrip" quads (G.to_list g)

let test_insertion_order () =
  let g, _ = sample () in
  let first = List.hd (G.to_list g) in
  Alcotest.check quad_testable "first is Chelsea"
    (Q.v "CR" "coach" (T.iri "Chelsea") (2000, 2004) 0.9)
    first

let test_duplicate_statements_allowed () =
  let g = G.create () in
  let q = Q.v "a" "p" (T.iri "b") (1, 2) 0.5 in
  let id1 = G.add g q and id2 = G.add g q in
  Alcotest.(check bool) "distinct ids" true (id1 <> id2);
  Alcotest.(check int) "both stored" 2 (G.size g)

(* Property: by_predicate agrees with a naive scan. *)
let arbitrary_graph =
  let quad_gen =
    QCheck.map
      (fun ((s, p), (lo, len), conf10) ->
        Q.v
          (Printf.sprintf "s%d" s)
          (Printf.sprintf "p%d" p)
          (T.iri "o")
          (lo, lo + len)
          (0.1 +. (float_of_int conf10 /. 11.0)))
      QCheck.(
        triple
          (pair (int_range 0 5) (int_range 0 3))
          (pair (int_range 0 50) (int_range 0 10))
          (int_range 0 9))
  in
  QCheck.(list_of_size (Gen.int_range 0 60) quad_gen)

let qcheck_by_predicate_naive =
  QCheck.Test.make ~name:"by_predicate = naive filter" ~count:200
    arbitrary_graph (fun quads ->
      let g = G.of_list quads in
      List.for_all
        (fun p ->
          let fast = List.map snd (G.by_predicate g (T.iri p)) in
          let naive =
            List.filter (fun q -> T.equal q.Q.predicate (T.iri p)) quads
          in
          List.length fast = List.length naive
          && fast = naive)
        [ "p0"; "p1"; "p2"; "p3" ])

(* ------------------------------------------------------------------ *)
(* Symbols                                                             *)
(* ------------------------------------------------------------------ *)

(* [add] interns predicate, subject, object and interval, fact by fact,
   into dense codes; a second fact over known symbols adds none. *)
let test_add_interns_in_order () =
  let g, _ = sample () in
  let s = G.symbols g in
  Alcotest.(check (list string)) "terms in first-intern order"
    [ "coach"; "CR"; "Chelsea"; "Leicester"; "playsFor"; "Palermo";
      "birthDate"; "1951"; "Napoli"; "Kid"; "Ajax" ]
    (List.init (G.term_count s) (fun c -> T.to_string (G.term s c)));
  Alcotest.(check int) "intervals" 6 (G.interval_count s);
  Alcotest.(check (option int)) "find" (Some 1) (G.find_term s (T.iri "CR"));
  Alcotest.(check (option int)) "find never added" None
    (G.find_term s (T.iri "Nobody"))

(* A copy keeps every code and owns its table from then on. *)
let test_copy_symbols () =
  let g, _ = sample () in
  let c = G.copy g in
  let id =
    G.add_codes c ~predicate:0 ~subject:1 ~object_:8 ~interval:0
      ~confidence:0.5
  in
  Alcotest.check quad_testable "add_codes = add of the decoded quad"
    (Q.v "CR" "coach" (T.iri "Napoli") (2000, 2004) 0.5)
    (G.find c id);
  ignore (G.add c (Q.v "New" "coach" (T.iri "X") (1, 2) 0.5));
  Alcotest.(check (option int)) "the copy's new term" (Some 11)
    (G.find_term (G.symbols c) (T.iri "New"));
  Alcotest.(check (option int)) "is not in the original" None
    (G.find_term (G.symbols g) (T.iri "New"))

(* A graph's symbols die with it: once a resolved graph and its result
   are unreachable, a major collection frees its table and a term that
   only the graph held. *)
let[@inline never] resolve_and_drop ~table ~term =
  let subject = T.iri (Printf.sprintf "freed-%d" 1) in
  let g =
    G.of_list
      [
        Q.make ~confidence:0.9 ~subject ~predicate:(T.iri "coach")
          ~object_:(T.iri "A") (Kg.Interval.make 2000 2004);
        Q.make ~confidence:0.6 ~subject ~predicate:(T.iri "coach")
          ~object_:(T.iri "B") (Kg.Interval.make 2001 2003);
      ]
  in
  let rules =
    Result.get_ok
      (Rulelang.Parser.parse_string
         "constraint c: coach(x, y)@t ^ coach(x, z)@t2 ^ y != z => \
          disjoint(t, t2) .")
  in
  let r = Tecore.Engine.resolve g rules in
  Alcotest.(check int) "one fact removed" 1
    (List.length r.Tecore.Engine.resolution.Tecore.Conflict.removed);
  Weak.set table 0 (Some (G.symbols g));
  Weak.set term 0 (Some subject)

let test_symbols_freed () =
  let table = Weak.create 1 and term = Weak.create 1 in
  resolve_and_drop ~table ~term;
  Gc.full_major ();
  Alcotest.(check bool) "the table is freed" false (Weak.check table 0);
  Alcotest.(check bool) "so is a term only the graph held" false
    (Weak.check term 0)

let () =
  Alcotest.run "graph"
    [
      ( "store",
        [
          Alcotest.test_case "add/size" `Quick test_add_size;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "unknown ids" `Quick test_unknown_id;
          Alcotest.test_case "copy independence" `Quick test_copy_independent;
          Alcotest.test_case "of_list roundtrip" `Quick test_of_list_roundtrip;
          Alcotest.test_case "insertion order" `Quick test_insertion_order;
          Alcotest.test_case "duplicates allowed" `Quick
            test_duplicate_statements_allowed;
        ] );
      ( "queries",
        [
          Alcotest.test_case "basic" `Quick test_queries;
          Alcotest.test_case "tombstones respected" `Quick
            test_queries_respect_tombstones;
          Alcotest.test_case "predicates" `Quick test_predicates;
        ] );
      ( "symbols",
        [
          Alcotest.test_case "add interns in fact order" `Quick
            test_add_interns_in_order;
          Alcotest.test_case "copy keeps codes" `Quick test_copy_symbols;
          Alcotest.test_case "freed with the graph" `Quick test_symbols_freed;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_by_predicate_naive;
        ] );
    ]
