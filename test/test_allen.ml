(* Tests for Allen's interval algebra: classification, converses, the
   composition table and qualitative networks. *)

module A = Kg.Allen
module I = Kg.Interval

let iv = I.make

let relation_testable =
  Alcotest.testable A.pp (fun a b -> a = b)

(* Canonical witness pairs for each of the 13 relations. *)
let witnesses =
  [
    (A.Before, iv 0 2, iv 5 9);
    (A.Meets, iv 0 4, iv 5 9);
    (A.Overlaps, iv 0 6, iv 5 9);
    (A.Finished_by, iv 0 9, iv 5 9);
    (A.Contains, iv 0 9, iv 5 8);
    (A.Starts, iv 5 6, iv 5 9);
    (A.Equals, iv 5 9, iv 5 9);
    (A.Started_by, iv 5 9, iv 5 6);
    (A.During, iv 6 8, iv 5 9);
    (A.Finishes, iv 6 9, iv 5 9);
    (A.Overlapped_by, iv 6 9, iv 5 7);
    (A.Met_by, iv 5 9, iv 0 4);
    (A.After, iv 5 9, iv 0 2);
  ]

let test_relate_witnesses () =
  List.iter
    (fun (r, a, b) ->
      Alcotest.check relation_testable (A.name r) r (A.relate a b))
    witnesses

let test_relate_exclusive () =
  (* Exactly one relation holds for any pair. *)
  List.iter
    (fun (r, a, b) ->
      List.iter
        (fun r' ->
          Alcotest.(check bool)
            (A.name r' ^ " holds iff expected")
            (r = r') (A.holds r' a b))
        A.all)
    witnesses

let test_converse_involution () =
  List.iter
    (fun r ->
      Alcotest.check relation_testable
        (A.name r ^ " converse twice")
        r
        (A.converse (A.converse r)))
    A.all

let test_converse_swaps () =
  List.iter
    (fun (r, a, b) ->
      Alcotest.check relation_testable
        (A.name r ^ " converse")
        (A.converse r) (A.relate b a))
    witnesses

let test_index_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.check relation_testable "of_index (to_index r)" r
        (A.of_index (A.to_index r)))
    A.all

let test_names () =
  List.iter
    (fun r ->
      match A.of_name (A.name r) with
      | Some r' -> Alcotest.check relation_testable (A.name r) r r'
      | None -> Alcotest.fail ("of_name failed on " ^ A.name r))
    A.all;
  (* Paper spelling variants. *)
  Alcotest.(check (option relation_testable)) "overlap" (Some A.Overlaps)
    (A.of_name "overlap");
  Alcotest.(check (option relation_testable)) "metBy" (Some A.Met_by)
    (A.of_name "metBy");
  Alcotest.(check (option relation_testable)) "finished_by" (Some A.Finished_by)
    (A.of_name "finished_by");
  Alcotest.(check (option relation_testable)) "unknown" None (A.of_name "zorp")

(* Classical composition-table spot checks (Allen 1983). *)
let set_testable = Alcotest.testable A.Set.pp A.Set.equal

let test_compose_classics () =
  let s = A.Set.of_list in
  Alcotest.check set_testable "before;before" (s [ A.Before ])
    (A.compose A.Before A.Before);
  Alcotest.check set_testable "meets;meets" (s [ A.Before ])
    (A.compose A.Meets A.Meets);
  Alcotest.check set_testable "during;during" (s [ A.During ])
    (A.compose A.During A.During);
  Alcotest.check set_testable "overlaps;overlaps"
    (s [ A.Before; A.Meets; A.Overlaps ])
    (A.compose A.Overlaps A.Overlaps);
  Alcotest.check set_testable "during;contains full" A.Set.full
    (A.compose A.During A.Contains);
  Alcotest.check set_testable "starts;during" (s [ A.During ])
    (A.compose A.Starts A.During);
  Alcotest.check set_testable "meets;during"
    (s [ A.Overlaps; A.Starts; A.During ])
    (A.compose A.Meets A.During);
  Alcotest.check set_testable "before;during"
    (s [ A.Before; A.Overlaps; A.Meets; A.During; A.Starts ])
    (A.compose A.Before A.During)

let test_compose_identity () =
  (* equals is the identity of composition. *)
  List.iter
    (fun r ->
      Alcotest.check set_testable
        ("equals;" ^ A.name r)
        (A.Set.singleton r)
        (A.compose A.Equals r);
      Alcotest.check set_testable
        (A.name r ^ ";equals")
        (A.Set.singleton r)
        (A.compose r A.Equals))
    A.all

let test_compose_converse_law () =
  (* (r1;r2)^-1 = r2^-1 ; r1^-1 *)
  List.iter
    (fun r1 ->
      List.iter
        (fun r2 ->
          Alcotest.check set_testable
            (Printf.sprintf "(%s;%s) converse" (A.name r1) (A.name r2))
            (A.Set.converse (A.compose r1 r2))
            (A.compose_set
               (A.Set.singleton (A.converse r2))
               (A.Set.singleton (A.converse r1))))
        A.all)
    A.all

let test_table_total_size () =
  (* The classical table contains 409 basic relations in total. *)
  let total =
    List.fold_left
      (fun acc r1 ->
        List.fold_left
          (fun acc r2 -> acc + A.Set.cardinal (A.compose r1 r2))
          acc A.all)
      0 A.all
  in
  Alcotest.(check int) "409 entries" 409 total

let test_set_operations () =
  let s = A.Set.of_list [ A.Before; A.After ] in
  Alcotest.(check bool) "mem before" true (A.Set.mem A.Before s);
  Alcotest.(check bool) "mem meets" false (A.Set.mem A.Meets s);
  Alcotest.(check int) "cardinal" 2 (A.Set.cardinal s);
  Alcotest.(check int) "full has 13" 13 (A.Set.cardinal A.Set.full);
  Alcotest.(check bool) "empty" true (A.Set.is_empty A.Set.empty);
  Alcotest.check set_testable "union"
    (A.Set.of_list [ A.Before; A.After; A.Meets ])
    (A.Set.union s (A.Set.singleton A.Meets));
  Alcotest.check set_testable "inter" (A.Set.singleton A.Before)
    (A.Set.inter s (A.Set.of_list [ A.Before; A.Meets ]));
  Alcotest.check set_testable "converse of {before,after} is itself" s
    (A.Set.converse s)

let test_derived_sets () =
  Alcotest.(check bool) "disjoint gap" true
    (A.Set.holds A.Set.disjoint (iv 1 2) (iv 5 9));
  Alcotest.(check bool) "disjoint adjacent" true
    (A.Set.holds A.Set.disjoint (iv 1 4) (iv 5 9));
  Alcotest.(check bool) "disjoint overlap" false
    (A.Set.holds A.Set.disjoint (iv 1 6) (iv 5 9));
  Alcotest.(check bool) "intersects overlap" true
    (A.Set.holds A.Set.intersects (iv 1 6) (iv 5 9));
  Alcotest.(check bool) "intersects finished-by" true
    (A.Set.holds A.Set.intersects (iv 1 9) (iv 5 9));
  Alcotest.(check int) "disjoint + intersects = 13" 13
    (A.Set.cardinal A.Set.disjoint + A.Set.cardinal A.Set.intersects);
  Alcotest.(check bool) "within during" true
    (A.Set.holds A.Set.within (iv 6 8) (iv 5 9));
  Alcotest.(check bool) "within equal" true
    (A.Set.holds A.Set.within (iv 5 9) (iv 5 9));
  Alcotest.(check bool) "within contains" false
    (A.Set.holds A.Set.within (iv 1 9) (iv 5 9))

(* Constraint c1's "strictly earlier": a gap or adjacency, nothing that
   shares a time point. *)
let test_before_or_meets () =
  Alcotest.(check (list string)) "exactly before and meets"
    [ A.name A.Before; A.name A.Meets ]
    (List.map A.name (A.Set.to_list A.Set.before_or_meets));
  Alcotest.(check bool) "gap" true
    (A.Set.holds A.Set.before_or_meets (iv 1 2) (iv 5 9));
  Alcotest.(check bool) "adjacent" true
    (A.Set.holds A.Set.before_or_meets (iv 1 4) (iv 5 9));
  Alcotest.(check bool) "shared end point" false
    (A.Set.holds A.Set.before_or_meets (iv 1 5) (iv 5 9));
  Alcotest.(check bool) "later" false
    (A.Set.holds A.Set.before_or_meets (iv 5 9) (iv 1 2));
  Alcotest.(check bool) "inside disjoint" true
    (A.Set.equal A.Set.before_or_meets
       (A.Set.inter A.Set.before_or_meets A.Set.disjoint))

let test_network_consistent_chain () =
  let n = A.Network.create 3 in
  A.Network.constrain n 0 1 (A.Set.singleton A.Before);
  A.Network.constrain n 1 2 (A.Set.singleton A.Before);
  Alcotest.(check bool) "chain consistent" true (A.Network.path_consistency n);
  (* Composition propagates: (0,2) must now be Before. *)
  Alcotest.check set_testable "propagated" (A.Set.singleton A.Before)
    (A.Network.get n 0 2)

let test_network_contradiction () =
  let n = A.Network.create 2 in
  A.Network.constrain n 0 1 (A.Set.singleton A.Before);
  A.Network.constrain n 1 0 (A.Set.singleton A.Before);
  Alcotest.(check bool) "contradiction detected" false
    (A.Network.path_consistency n)

let test_network_triangle_contradiction () =
  (* 0 before 1, 1 before 2, 2 before 0 is unsatisfiable. *)
  let n = A.Network.create 3 in
  A.Network.constrain n 0 1 (A.Set.singleton A.Before);
  A.Network.constrain n 1 2 (A.Set.singleton A.Before);
  A.Network.constrain n 2 0 (A.Set.singleton A.Before);
  Alcotest.(check bool) "cycle detected" false (A.Network.path_consistency n)

let test_network_scenario () =
  let n = A.Network.create 3 in
  A.Network.constrain n 0 1 (A.Set.of_list [ A.Before; A.Meets ]);
  A.Network.constrain n 1 2 (A.Set.of_list [ A.Overlaps ]);
  match A.Network.consistent_scenario n with
  | None -> Alcotest.fail "expected a scenario"
  | Some s ->
      Alcotest.(check bool) "0 vs 1" true
        (A.Set.mem (A.relate s.(0) s.(1)) (A.Set.of_list [ A.Before; A.Meets ]));
      Alcotest.check relation_testable "1 vs 2" A.Overlaps (A.relate s.(1) s.(2))

let test_network_scenario_none () =
  let n = A.Network.create 2 in
  A.Network.constrain n 0 1 A.Set.empty;
  Alcotest.(check bool) "no scenario" true
    (A.Network.consistent_scenario n = None)

let arbitrary_interval =
  QCheck.map
    (fun (a, b) -> if a <= b then iv a b else iv b a)
    QCheck.(pair (int_range 0 60) (int_range 0 60))

let qcheck_composition_sound =
  QCheck.Test.make ~name:"relate(a,c) in compose(relate(a,b), relate(b,c))"
    ~count:2000
    QCheck.(triple arbitrary_interval arbitrary_interval arbitrary_interval)
    (fun (a, b, c) ->
      A.Set.mem (A.relate a c) (A.compose (A.relate a b) (A.relate b c)))

let qcheck_exactly_one_relation =
  QCheck.Test.make ~name:"exactly one basic relation holds" ~count:1000
    QCheck.(pair arbitrary_interval arbitrary_interval)
    (fun (a, b) ->
      List.length (List.filter (fun r -> A.holds r a b) A.all) = 1)

let qcheck_converse_relate =
  QCheck.Test.make ~name:"relate(b,a) = converse(relate(a,b))" ~count:1000
    QCheck.(pair arbitrary_interval arbitrary_interval)
    (fun (a, b) -> A.relate b a = A.converse (A.relate a b))

(* Lift soundness to sets: whatever sets S1 ∋ relate(a,b) and
   S2 ∋ relate(b,c) we pick, compose_set S1 S2 must keep relate(a,c). *)
let arbitrary_relation_set =
  QCheck.map
    (fun picks ->
      List.fold_left
        (fun acc (keep, r) -> if keep then A.Set.union acc (A.Set.singleton r) else acc)
        A.Set.empty
        (List.combine picks A.all))
    QCheck.(list_of_size (QCheck.Gen.return 13) bool)

let qcheck_compose_set_sound =
  QCheck.Test.make
    ~name:"compose_set preserves relate(a,c) for any covering sets"
    ~count:1000
    QCheck.(
      pair
        (triple arbitrary_interval arbitrary_interval arbitrary_interval)
        (pair arbitrary_relation_set arbitrary_relation_set))
    (fun ((a, b, c), (s1, s2)) ->
      let s1 = A.Set.union s1 (A.Set.singleton (A.relate a b)) in
      let s2 = A.Set.union s2 (A.Set.singleton (A.relate b c)) in
      A.Set.mem (A.relate a c) (A.compose_set s1 s2))

let qcheck_compose_never_empty =
  (* Every cell of the composition table is non-empty: two basic
     relations are always jointly realisable through some middle
     interval, so at least one composite relation must survive. *)
  QCheck.Test.make ~name:"compose r1 r2 is never empty" ~count:169
    QCheck.(
      pair (int_range 0 12) (int_range 0 12))
    (fun (i, j) ->
      not (A.Set.is_empty (A.compose (A.of_index i) (A.of_index j))))

let () =
  Alcotest.run "allen"
    [
      ( "relate",
        [
          Alcotest.test_case "witnesses" `Quick test_relate_witnesses;
          Alcotest.test_case "exclusive" `Quick test_relate_exclusive;
          Alcotest.test_case "converse involution" `Quick test_converse_involution;
          Alcotest.test_case "converse swaps args" `Quick test_converse_swaps;
          Alcotest.test_case "index roundtrip" `Quick test_index_roundtrip;
          Alcotest.test_case "names" `Quick test_names;
        ] );
      ( "composition",
        [
          Alcotest.test_case "classics" `Quick test_compose_classics;
          Alcotest.test_case "identity" `Quick test_compose_identity;
          Alcotest.test_case "converse law" `Quick test_compose_converse_law;
          Alcotest.test_case "table size 409" `Quick test_table_total_size;
        ] );
      ( "sets",
        [
          Alcotest.test_case "operations" `Quick test_set_operations;
          Alcotest.test_case "derived sets" `Quick test_derived_sets;
          Alcotest.test_case "before_or_meets" `Quick test_before_or_meets;
        ] );
      ( "network",
        [
          Alcotest.test_case "consistent chain" `Quick test_network_consistent_chain;
          Alcotest.test_case "contradiction" `Quick test_network_contradiction;
          Alcotest.test_case "triangle contradiction" `Quick
            test_network_triangle_contradiction;
          Alcotest.test_case "scenario" `Quick test_network_scenario;
          Alcotest.test_case "scenario none" `Quick test_network_scenario_none;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_composition_sound;
          QCheck_alcotest.to_alcotest qcheck_exactly_one_relation;
          QCheck_alcotest.to_alcotest qcheck_converse_relate;
          QCheck_alcotest.to_alcotest qcheck_compose_set_sound;
          QCheck_alcotest.to_alcotest qcheck_compose_never_empty;
        ] );
    ]
